package main

// Spans recorded by the traced run around the benchmark's own calls into
// each layer. They are held in memory and written out when the run ends;
// the per-layer self times come from them.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Trace is the drive or request it belongs to;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs and AllocBytes are the heap allocations made during the span,
	// recorded only when the tracer counts allocations (one worker, so
	// nothing else allocates meanwhile).
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer collects spans. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	// probe, when set, counts each child span's allocations; it is only
	// set for single-worker runs.
	probe runtimeProbe
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(countAllocs bool) *tracer {
	t := &tracer{epoch: time.Now()}
	if countAllocs {
		t.probe = newRuntimeProbe()
	}
	return t
}

// scope is an open span that layer calls nest under. A nil *scope is the
// untraced case: begin returns a no-op.
type scope struct {
	t      *tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  int64
}

func noop() {}

// root opens the span of one drive or request.
func (t *tracer) root(trace int64, name string) *scope {
	if t == nil {
		return nil
	}
	return &scope{t: t, id: t.ids.Add(1), trace: trace, name: name, start: t.now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// end closes the scope's own span.
func (s *scope) end() {
	if s == nil {
		return
	}
	s.t.add(span{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name, Start: s.start, End: s.t.now()})
}

// begin opens a child span and returns the function that closes it.
func (s *scope) begin(name string) func() {
	if s == nil {
		return noop
	}
	var objs, bytes uint64
	var start int64
	id := s.t.ids.Add(1)
	end := func() {
		sp := span{ID: id, Parent: s.id, Trace: s.trace, Name: name, Start: start, End: s.t.now()}
		if s.t.probe != nil {
			o, b, _ := s.t.probe.read()
			sp.Allocs, sp.AllocBytes = o-objs, b-bytes
		}
		s.t.add(sp)
	}
	// Read the counters after building the closure, so its own allocation
	// is not charged to the span.
	if s.t.probe != nil {
		objs, bytes, _ = s.t.probe.read()
	}
	start = s.t.now()
	return end
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// layerOf names the layer a span belongs to: the part of its name before
// the first dot ("core.adjust" → "core"). Roots are the benchmark's own
// bookkeeping.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes sums, per layer, each span's duration minus the time its
// children cover. Children of one span never overlap: the benchmark calls
// layers one after another.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, sp := range spans {
		out[layerOf(sp.Name)] += time.Duration(sp.End - sp.Start - child[sp.ID])
	}
	return out
}

// write stores the spans as JSON, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// traceSummary reports the traced run's self time per layer, its span
// count, and its overhead: the traced minus the untraced median of the
// run's primary latency, as a share of the untraced one.
func traceSummary(rep *report, tr *tracer, traced, plain []float64) error {
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	rep.set("trace.spans", float64(len(tr.spans)))
	tr.mu.Unlock()
	for _, layer := range []string{"core", "fusion", "fuel", "emission", "cloud", "bench"} {
		rep.set("self."+layer+"_ms", msOf(self[layer]))
	}
	mt, err := median(traced)
	if err != nil {
		return fmt.Errorf("traced median: %w", err)
	}
	mp, err := median(plain)
	if err != nil {
		return fmt.Errorf("untraced median: %w", err)
	}
	rep.set("trace.overhead_pct", 100*(mt-mp)/mp)
	return nil
}
