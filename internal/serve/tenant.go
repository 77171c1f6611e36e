package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// TenantPolicy bounds what one tenant can do to the shared fleet. Two
// independent mechanisms compose:
//
//   - a token bucket (Rate, Burst) bounds submission *rate* — a tenant
//     replaying a script at 10x its quota drains its own bucket and
//     sees 429s with Retry-After, while every other tenant's bucket is
//     untouched;
//   - a fair-share cap (MaxActive) bounds *occupancy* — how many of a
//     tenant's jobs may be admitted-but-unfinished at once, so a
//     tenant with a full bucket still cannot monopolize the fleet's
//     inflight slots with long jobs.
//
// Both are per-tenant and purely local state: no tenant's admission
// decision reads another tenant's counters, which is what makes the
// flood-isolation pin (one tenant at 10x quota, others' p99 and shed
// rate unchanged) hold by construction.
type TenantPolicy struct {
	// Rate is sustained submissions per second per tenant. Default 5.
	Rate float64
	// Burst is the bucket capacity — how many submissions a quiet
	// tenant can fire back-to-back. Default 10.
	Burst float64
	// MaxActive caps a tenant's admitted-but-unfinished jobs.
	// Default 4.
	MaxActive int
}

func (p TenantPolicy) withDefaults() TenantPolicy {
	if p.Rate <= 0 {
		p.Rate = 5
	}
	if p.Burst <= 0 {
		p.Burst = 10
	}
	if p.MaxActive <= 0 {
		p.MaxActive = 4
	}
	return p
}

// tenantState is one tenant's quota ledger.
type tenantState struct {
	tokens float64   // current bucket level
	last   time.Time // last refill instant
	active int       // admitted-but-unfinished jobs
}

// tenants tracks per-tenant quota state under one lock; contention is
// trivial next to the cost of a single MD step.
type tenants struct {
	policy TenantPolicy
	now    func() time.Time // the server's clock (Config.Now)

	mu sync.Mutex
	m  map[string]*tenantState
}

func newTenants(p TenantPolicy, now func() time.Time) *tenants {
	return &tenants{policy: p.withDefaults(), now: now, m: make(map[string]*tenantState)}
}

// ErrQuota is the sentinel inside quota rejections; the HTTP layer maps
// it to 429 with the embedded Retry-After hint.
type quotaError struct {
	tenant     string
	reason     string
	retryAfter time.Duration
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota (%s); retry after %s", e.tenant, e.reason, e.retryAfter)
}

// admit spends one submission token and takes one active slot for the
// tenant, or returns a *quotaError with a Retry-After hint. Token and
// slot are taken atomically: a request rejected on the active cap does
// not burn a token.
func (t *tenants) admit(tenant string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(tenant)
	t.refill(st)
	if st.active >= t.policy.MaxActive {
		// Occupancy is released by job completion, not by the clock; the
		// honest hint is "about one job's worth of time", which the
		// caller cannot know — so advertise the rate interval as the
		// polling cadence.
		return &quotaError{tenant: tenant, reason: fmt.Sprintf("%d jobs active, cap %d", st.active, t.policy.MaxActive),
			retryAfter: t.interval()}
	}
	if st.tokens < 1 {
		// Time until the bucket refills to one whole token.
		need := (1 - st.tokens) / t.policy.Rate
		return &quotaError{tenant: tenant, reason: "submission rate exceeded",
			retryAfter: time.Duration(math.Ceil(need*1e3)) * time.Millisecond}
	}
	st.tokens--
	st.active++
	return nil
}

// release returns the tenant's active slot when a job reaches a
// terminal state (or was shed after admit).
func (t *tenants) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(tenant)
	if st.active > 0 {
		st.active--
	}
}

// reserve takes an active slot without spending a token — used when a
// restarted server re-admits recovered jobs, which were already paid
// for when first submitted.
func (t *tenants) reserve(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(tenant).active++
}

// state returns (creating if needed) the ledger for a tenant.
// Callers hold t.mu.
func (t *tenants) state(tenant string) *tenantState {
	st := t.m[tenant]
	if st == nil {
		st = &tenantState{tokens: t.policy.Burst, last: t.now()}
		t.m[tenant] = st
	}
	return st
}

// refill credits tokens for the time elapsed since the last refill,
// capped at Burst. Callers hold t.mu.
func (t *tenants) refill(st *tenantState) {
	now := t.now()
	if dt := now.Sub(st.last).Seconds(); dt > 0 {
		st.tokens = math.Min(t.policy.Burst, st.tokens+dt*t.policy.Rate)
	}
	st.last = now
}

// interval is the steady-state gap between permitted submissions.
func (t *tenants) interval() time.Duration {
	return time.Duration(math.Ceil(1e3/t.policy.Rate)) * time.Millisecond
}

// snapshot returns per-tenant occupancy for /v1/stats, sorted by
// tenant name for deterministic output.
func (t *tenants) snapshot() []TenantStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantStat, 0, len(t.m))
	for name, st := range t.m {
		out = append(out, TenantStat{Tenant: name, Active: st.active})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// TenantStat is one tenant's occupancy in the /v1/stats payload.
type TenantStat struct {
	Tenant string `json:"tenant"`
	Active int    `json:"active"`
}

// retryAfterSeconds renders a Retry-After hint as whole seconds,
// rounded up, at least 1 — what the header grammar allows.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
