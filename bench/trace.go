package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one unit of work (an ALS iteration, a stream
// window, a query) share a Run id.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // offset from the recorder's origin
	End    time.Duration
	Parent int // index of the span that caused this one, -1 for a root
	Run    int
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// is tracing switched off: every method is a no-op, so measured code calls
// it unconditionally and the end-to-end run pays one nil check per call.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (r *recorder) begin(name, layer string, parent, run int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Run: run})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add stores a span measured elsewhere (the gaps between a solver's
// OnIteration callbacks, which have no call to wrap).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the finished spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (parallel
// calls) or lie next to each other; the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		at := s.Start // everything before `at` is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByRun sums self time of the spans accepted by keep, per Run id, in
// seconds. It is how per-iteration and per-window layer times are read out
// of a trace.
func selfByRun(spans []span, keep func(span) bool) map[int]float64 {
	self := selfTimes(spans)
	out := make(map[int]float64)
	for i, s := range spans {
		if keep(s) {
			out[s.Run] += self[i].Seconds()
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// that chrome://tracing and Perfetto open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, one track
// per Run id.
func writeChromeTrace(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]any{"id": i, "parent": s.Parent, "self_us": float64(self[i].Nanoseconds()) / 1e3},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
