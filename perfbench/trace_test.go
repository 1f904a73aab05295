package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},  // 0: root
		{Start: 10, End: 40, Parent: 0},   // 1: child
		{Start: 30, End: 60, Parent: 0},   // 2: child overlapping 1
		{Start: 15, End: 35, Parent: 1},   // 3: grandchild, counts against 1 only
		{Start: 90, End: 130, Parent: 0},  // 4: child outliving the root
		{Start: 70, End: 80, Parent: 0},   // 5: disjoint child
		{Start: 200, End: -1, Parent: -1}, // 6: still open
	}
	got := selfTimes(spans)
	// Root: children cover [10,60) ∪ [70,80) ∪ [90,100) = 70 of 100.
	want := []int64{30, 10, 30, 20, 40, 10, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeContainedChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 50, Parent: -1},
		{Start: 5, End: 45, Parent: 0},
		{Start: 10, End: 20, Parent: 0}, // inside the first child
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Fatalf("self time = %d, want 10", got)
	}
}

func TestTracerRecordsAndSummarises(t *testing.T) {
	tr := newTracer()
	root := tr.begin("frame", -1, 7)
	if err := tr.do("sched.run", root, 7, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if n := len(tr.durations("sched.run")); n != 1 {
		t.Fatalf("%d sched.run spans", n)
	}
	if n := tr.mark(); n != 2 {
		t.Fatalf("mark = %d, want 2", n)
	}
	sum := tr.summary()
	if len(sum) != 2 || sum[0].Name != "frame" || sum[0].Count != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	var buf bytes.Buffer
	if err := tr.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "1,0,sched.run,7,") {
		t.Fatalf("csv = %q", buf.String())
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.end(-1)
}

func TestMedianPerUnitSumsEachRound(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Start: 0, End: 10, Name: 0, Unit: 0},
		{Start: 10, End: 15, Name: 0, Unit: 0}, // round 0: 15
		{Start: 0, End: 30, Name: 0, Unit: 1},  // round 1: 30
		{Start: 0, End: 20, Name: 0, Unit: 2},  // round 2: 20
		{Start: 0, End: 99, Name: 0, Unit: 3},  // past the limit
	}
	tr.names, tr.ids = []string{"lease"}, map[string]uint16{"lease": 0}
	if got := tr.medianPerUnit("lease", 4); got != 20 {
		t.Fatalf("median per round = %v, want 20", got)
	}
	if got := tr.medianPerUnit("absent", 4); got != 0 {
		t.Fatalf("absent span median = %v, want 0", got)
	}
}
