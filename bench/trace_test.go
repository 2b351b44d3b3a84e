package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		// Two adjacent children and one separated by a gap.
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 50 * ms, Parent: 0},
		{Name: "c", Start: 60 * ms, End: 90 * ms, Parent: 0},
		// A grandchild takes from c, not from root.
		{Name: "c1", Start: 65 * ms, End: 85 * ms, Parent: 3},
	}
	want := []time.Duration{30 * ms, 20 * ms, 20 * ms, 10 * ms, 20 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeOverlappingChildrenCountOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		// Parallel calls: the covered part is the union, 10..70.
		{Name: "w0", Start: 10 * ms, End: 50 * ms, Parent: 0},
		{Name: "w1", Start: 20 * ms, End: 70 * ms, Parent: 0},
		// A child that outlives its parent is clipped to it.
		{Name: "late", Start: 90 * ms, End: 120 * ms, Parent: 0},
	}
	if got, want := selfTimes(spans)[0], 30*ms; got != want {
		t.Errorf("root self time = %v, want %v", got, want)
	}
}

func TestSelfByRunGroupsIterations(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 10 * ms, Parent: -1, Run: 1},
		{Name: "mttkrp.mode0", Start: 1 * ms, End: 5 * ms, Parent: 0, Run: 1},
		{Name: "mttkrp.mode1", Start: 5 * ms, End: 8 * ms, Parent: 0, Run: 1},
		{Name: "iteration", Start: 10 * ms, End: 30 * ms, Parent: -1, Run: 2},
		{Name: "mttkrp.mode0", Start: 12 * ms, End: 22 * ms, Parent: 3, Run: 2},
	}
	got := selfByRun(spans, func(s span) bool { return s.Name != "iteration" })
	if math.Abs(got[1]-0.007) > 1e-12 || math.Abs(got[2]-0.010) > 1e-12 {
		t.Errorf("per-run MTTKRP self time = %v, want run 1: 7ms, run 2: 10ms", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", "y", -1, 0)
	r.end(id)
	r.add(span{})
	if len(r.all()) != 0 {
		t.Fatal("a nil recorder recorded spans")
	}
}

func TestRecorderSkipsOpenSpans(t *testing.T) {
	r := newRecorder()
	done := r.begin("done", "l", -1, 0)
	r.begin("open", "l", done, 0)
	r.end(done)
	if all := r.all(); len(all) != 1 || all[0].Name != "done" {
		t.Fatalf("finished spans = %+v, want only the closed one", all)
	}
}

func TestChromeTraceIsValidTraceEventJSON(t *testing.T) {
	r := newRecorder()
	root := r.begin("iteration", "bench", -1, 3)
	kid := r.begin("mttkrp.mode0", "cpals", root, 3)
	r.end(kid)
	r.end(root)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, r.all()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "cpals" || ev.Tid != 3 || ev.Dur < 0 || ev.Args["parent"].(float64) != 0 {
		t.Errorf("child event = %+v", ev)
	}
}
