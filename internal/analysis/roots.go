package analysis

import (
	"fmt"
	"strings"
)

// RootSpec names one kernel root for determinism certification, in
// FuncKey form: "importpath:Func" or "importpath:Recv.Func".
type RootSpec string

// KernelRoots is the declared registry of kernel entry points the
// determinism certificate covers: every force evaluation, neighbor
// build, and integration step the production paths can drive. A
// function renamed or moved without updating this registry shows up as
// an "unresolved" verdict in the certificate, which the committed
// golden (and its test) refuses. Each parallel kernel has a single
// entry point, so each appears once.
var KernelRoots = []RootSpec{
	// integrate
	"repro/internal/md:System.Step",
	"repro/internal/md:System.StepWith",
	"repro/internal/md:System.StepWithE",
	"repro/internal/md:System.Run",
	// serial force kernels
	"repro/internal/md:ComputeForces",
	"repro/internal/md:ComputeForcesFull",
	"repro/internal/md:ComputeForcesFullCount",
	"repro/internal/md:NeighborList.Forces",
	"repro/internal/md:BondedForces",
	// neighbor builds
	"repro/internal/md:NeighborList.Build",
	"repro/internal/md:NeighborList.BuildN2",
	// parallel kernels and builds
	"repro/internal/parallel:Engine.ForcesDirect",
	"repro/internal/parallel:Engine.ForcesPairlist",
	"repro/internal/parallel:Engine.BuildPairlist",
}

// AllowRule declares one dynamic call site the graph cannot resolve but
// certification accepts, with the reviewed reason. Caller is the
// FuncKey of the calling function ("" matches any caller); Callee is
// the site description the graph renders — the func value's name for
// func-typed calls, "importpath.Type.Method" for interface calls. Every
// allowlist entry a certification actually uses is recorded in the
// certificate, so the audit trail travels with the verdict.
type AllowRule struct {
	Caller string `json:"caller,omitempty"`
	Callee string `json:"callee"`
	Reason string `json:"reason"`
}

// DynamicAllowlist is the declared set of dynamic call sites the
// certified cones contain. Each entry is a reviewed decision; the
// reasons are the argument for why the site cannot smuggle
// nondeterminism into a kernel.
var DynamicAllowlist = []AllowRule{
	{
		Caller: "repro/internal/md:System.StepWith", Callee: "forces",
		Reason: "caller-supplied force kernel; every production kernel is itself a certified root",
	},
	{
		Caller: "repro/internal/md:System.StepWithE", Callee: "forces",
		Reason: "caller-supplied force kernel; every production kernel is itself a certified root",
	},
	{
		Caller: "repro/internal/parallel:Engine.call", Callee: "fn",
		Reason: "worker shard closure from the same kernel evaluation; sharding and reduction order are fixed",
	},
	{
		Caller: "repro/internal/parallel:New", Callee: "f",
		Reason: "pool task closure; tasks carry deterministic shard work and a fixed reduction",
	},
	{
		Callee: "context.Context.Err",
		Reason: "cancellation probe: affects whether a step completes, never the bytes it produces",
	},
	{
		Callee: "context.Context.Done",
		Reason: "cancellation probe: affects whether a step completes, never the bytes it produces",
	},
	{
		Callee: "repro/internal/faults.Injector.Fire",
		Reason: "fault injection is a seeded, call-numbered schedule (faults.Registry); replays are bit-exact",
	},
	{
		Callee: "repro/internal/faults.Fault.WorkerFaultCtx",
		Reason: "injected fault behavior is part of the seeded schedule, not ambient nondeterminism",
	},
}

// ParseRoots parses a comma-separated -roots override
// ("importpath:Func,importpath:Recv.Func").
func ParseRoots(s string) ([]RootSpec, error) {
	var out []RootSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, ":") {
			return nil, fmt.Errorf("analysis: root %q: want importpath:Func or importpath:Recv.Func", part)
		}
		out = append(out, RootSpec(part))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: -roots given but no roots parsed from %q", s)
	}
	return out, nil
}

// allowIndex resolves dynamic sites against the allowlist.
type allowIndex []AllowRule

// match returns the first allowlist entry covering a dynamic site.
func (ai allowIndex) match(caller, callee string) (AllowRule, bool) {
	for _, r := range ai {
		if r.Callee == callee && (r.Caller == "" || r.Caller == caller) {
			return r, true
		}
	}
	return AllowRule{}, false
}
