package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run. Spans are recorded
// by the benchmark around its calls into each layer; a nil *tracer
// records nothing, which is how the untraced run stays free of
// tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	names []string
	ids   map[string]uint16
	spans []span
}

// span is one timed call: [Start, End) in nanoseconds since the
// tracer's epoch, the index of the span that caused it (-1 for a
// root), and the unit (frame, iteration, job, set-up round) it
// belongs to.
type span struct {
	Start, End int64
	Parent     int32
	Name       uint16
	Unit       int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint16{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, unit int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	t.spans = append(t.spans, span{Start: now, End: -1, Parent: int32(parent), Name: id, Unit: unit})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, unit int64, f func() error) error {
	id := t.begin(name, parent, unit)
	err := f()
	t.end(id)
	return err
}

// mark returns the current span count: spans recorded after it belong
// to a later phase.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations in nanoseconds of the closed spans
// named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == id && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Children may overlap
// each other (concurrent calls) and may outlive the parent; the covered
// part is the union of their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // still open
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if cs.End >= cs.Start && hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary aggregates every closed span by name, in order of total time.
func (t *tracer) summary() []spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	agg := make([]spanSummary, len(t.names))
	for i, n := range t.names {
		agg[i].Name = n
	}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		a := &agg[s.Name]
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self[i]) / 1e6
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].TotalMs > agg[j].TotalMs })
	return agg
}

// writeCSV writes every span, one line each: id, parent, name, unit,
// start and end in nanoseconds since the run's trace epoch.
func (t *tracer) writeCSV(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,name,unit,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d\n", i, s.Parent, t.names[s.Name], s.Unit, s.Start, s.End)
	}
	return bw.Flush()
}

// medianPerUnit is the median over units (set-up rounds) of the summed
// duration (ns) of the spans named name in each; spans from index limit
// on are ignored.
func (tr *tracer) medianPerUnit(name string, limit int) float64 {
	tr.mu.Lock()
	id, ok := tr.ids[name]
	sums := map[int64]float64{}
	if ok {
		for _, s := range tr.spans[:limit] {
			if s.Name == id && s.End >= 0 {
				sums[s.Unit] += float64(s.End - s.Start)
			}
		}
	}
	tr.mu.Unlock()
	var xs []float64
	for _, v := range sums {
		xs = append(xs, v)
	}
	return finite(median(xs))
}
