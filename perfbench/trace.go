package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// The benchmark's tracer records spans in memory around each call it makes
// into a layer's public API and writes them out when the run ends. A span's
// layer is its name up to the first dot; spans named "bench.*" are the
// benchmark's own bookkeeping, the time no layer accounts for.

// span is one recorded interval. Offsets are nanoseconds on the tracer's
// monotonic clock.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span's layer: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer is goroutine-safe; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// start opens a span now and returns its index.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	group := ""
	if parent >= 0 {
		group = t.spans[parent].Group
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Group: group, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent int, from, to time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	group := ""
	if parent >= 0 {
		group = t.spans[parent].Group
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Group: group, Start: t.at(from), End: t.at(to)})
	return len(t.spans) - 1
}

// setGroup sets the group of span id; spans opened under it afterwards
// inherit it.
func (t *tracer) setGroup(id int, group string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Group = group
	t.mu.Unlock()
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// attribution is the result of splitting a traced run's wall time into the
// self time of each layer.
type attribution struct {
	WallNs   int64            // wall clock from the tracer's creation to the attribution
	SelfNs   map[string]int64 // per layer: span time minus child-covered time
	Nested   bool             // every child lies inside its parent, siblings (roots too) never overlap
	SumNs    int64            // sum of all self times
	BenchNs  int64            // self time of the benchmark's own spans
	Unclosed int
}

// attributionTolerance is the share of the traced wall time that may stay
// unattributed to any layer (the benchmark's own loop and span bookkeeping)
// and the largest share of the wall clock that self times may leave
// uncovered (time spent outside every span).
const attributionTolerance = 0.05

// attribute computes per-layer self times against the wall clock since the
// tracer was created. Spans of one parent, and the roots, must not overlap,
// which the traced runs guarantee by running one call at a time.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := attribution{WallNs: t.at(time.Now()), SelfNs: map[string]int64{}, Nested: true}
	var roots []int
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		switch {
		case s.End < 0:
			a.Unclosed++
		case s.Parent < 0:
			roots = append(roots, i)
		default:
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	// within checks that the spans listed in ids (in start order) lie
	// inside [from, to] without overlapping each other, and returns the
	// time they cover.
	within := func(ids []int, from, to int64) int64 {
		covered, prevEnd := int64(0), from
		for _, k := range ids {
			c := t.spans[k]
			if c.Start < prevEnd || c.End > to {
				a.Nested = false
			}
			prevEnd = c.End
			covered += c.dur()
		}
		return covered
	}
	within(roots, 0, a.WallNs)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.dur() - within(kids[i], s.Start, s.End)
		a.SelfNs[s.layer()] += self
		a.SumNs += self
	}
	a.BenchNs = a.SelfNs["bench"]
	return a
}

// ok reports whether the attribution meets the stated tolerance.
func (a attribution) ok() bool {
	if a.WallNs <= 0 || !a.Nested || a.Unclosed > 0 {
		return false
	}
	uncovered := float64(a.WallNs-a.SumNs) / float64(a.WallNs)
	return uncovered <= attributionTolerance && float64(a.BenchNs) <= attributionTolerance*float64(a.WallNs)
}

// unattributed is the share of the wall time no layer accounts for.
func (a attribution) unattributed() float64 { return ratio(float64(a.BenchNs), float64(a.WallNs)) }
