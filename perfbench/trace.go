package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// noParent and noJob mark a span without a parent span or outside any
// served job.
const (
	noParent int32 = -1
	noJob    int32 = -1
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's epoch; Job is shared by every span of one served
// job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
	Bytes  int64  `json:"bytes,omitempty"`
	Path   string `json:"path,omitempty"` // filesystem spans only
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out only when the
// run ends, so recording costs two clock reads and an append. A nil
// recorder records nothing, which is how the untraced runs share code
// with the traced ones.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return noParent
	}
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: noJob})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a finished span and returns its index.
func (r *recorder) add(s span) int32 {
	if r == nil {
		return noParent
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// len returns how many spans have been recorded.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// adopt makes each root-less span from index from on that carries a
// job the child of that job's root span.
func (r *recorder) adopt(from int, roots map[int32]int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := from; i < len(r.spans); i++ {
		s := &r.spans[i]
		if root, ok := roots[s.Job]; ok && s.Parent == noParent && int32(i) != root {
			s.Parent = root
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes reduces spans to per-name self time: each span's duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[int32(i)])
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(math.MinInt64), int64(math.MinInt64)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	total += hi - lo
	return time.Duration(total)
}

// writeSpans writes spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
