package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the layer call a span wraps.
type spanName uint8

const (
	spOp           spanName = iota // one closed-loop operation
	spSetup                        // one set-up repetition
	spNewSystem                    // repro.NewSystem
	spPrepareCold                  // System.Prepare, first call for a query
	spPrepareHit                   // System.Prepare, cached query
	spOpen                         // System.Open
	spWarmup                       // the warm-up operation
	spHandleExec                   // Handle.Execute
	spPreparedExec                 // PreparedQuery.Execute
	spApply                        // Handle.ApplyDelta
	spReadback                     // the read-back after a batch
	spFetch                        // Snapshot.Fetch on a P = 1 handle
	spShardExec                    // Handle.Execute on the workload's handle
	spSelectedExec                 // the same, of the plan a PreparedQuery selected
	spShardFetch                   // Snapshot.Fetch on the workload's handle
	spPin                          // Handle.Snapshot + Snapshot.Close
	spCanon                        // plan.QueryKey
	spRank                         // plan.Best over a frontier
	spProbe                        // one iteration of the layer probe pass
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "setup", "system.new", "prepare.cold", "prepare.hit", "handle.open",
	"warmup", "handle.execute", "prepared.execute", "handle.apply", "readback",
	"instance.fetch", "shard.execute", "selected.execute", "shard.fetch", "epoch.pin", "plan.canon",
	"plan.rank", "probe",
}

// span is one timed call: times are nanoseconds since the tracer's base,
// ids are unique per tracer, and parent is 0 for a root span.
type span struct {
	id, parent int64
	op         int64
	start, end int64
	name       spanName
}

// tracer keeps spans in memory. A bounded tracer is a ring: once full it
// overwrites its oldest spans, so a long run keeps its latest ones and
// never allocates while it records. A nil *tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
	ring  bool
	next  int // ring slot the next span overwrites once the ring is full
	ids   int64
}

func newTracer(base time.Time, ringCap int) *tracer {
	t := &tracer{base: base}
	if ringCap > 0 {
		t.spans = make([]span, 0, ringCap)
		t.ring = true
	}
	return t
}

// spanRef locates an open span so end can close it.
type spanRef struct {
	idx int
	id  int64
}

// begin opens a span that later spans name as their parent.
func (t *tracer) begin(name spanName, op, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.push(span{parent: parent, op: op, name: name, start: time.Since(t.base).Nanoseconds()})
}

func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	// A ring may have overwritten the span while it was open.
	if s := &t.spans[r.idx]; s.id == r.id {
		s.end = time.Since(t.base).Nanoseconds()
	}
}

// record adds a closed span timed by the caller, so the tracer's own work
// falls outside the measured interval.
func (t *tracer) record(name spanName, op, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.push(span{parent: parent, op: op, name: name, start: start.Sub(t.base).Nanoseconds(), end: end.Sub(t.base).Nanoseconds()})
}

func (t *tracer) push(s span) spanRef {
	t.ids++
	s.id = t.ids
	if t.ring && len(t.spans) == cap(t.spans) {
		idx := t.next
		t.spans[idx] = s
		t.next = (idx + 1) % len(t.spans)
		return spanRef{idx: idx, id: s.id}
	}
	t.spans = append(t.spans, s)
	return spanRef{idx: len(t.spans) - 1, id: s.id}
}

// ordered returns the recorded spans oldest first.
func (t *tracer) ordered() []span {
	if !t.ring || t.next == 0 {
		return t.spans
	}
	return append(append([]span(nil), t.spans[t.next:]...), t.spans[:t.next]...)
}

// durationsUS returns the durations of the closed spans called name, in
// microseconds.
func (t *tracer) durationsUS(name spanName) []float64 {
	var out []float64
	for _, s := range t.ordered() {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// sumByParentUS sums the durations of the spans called name under each
// parent span and returns one total per parent, in microseconds.
func (t *tracer) sumByParentUS(name spanName) []float64 {
	sums := map[int64]float64{}
	var order []int64
	for _, s := range t.ordered() {
		if s.name != name || s.end == 0 {
			continue
		}
		if _, ok := sums[s.parent]; !ok {
			order = append(order, s.parent)
		}
		sums[s.parent] += float64(s.end-s.start) / 1e3
	}
	out := make([]float64, 0, len(order))
	for _, p := range order {
		out = append(out, sums[p])
	}
	return out
}

// childGapsUS pairs each span called outer with the span called inner
// that follows it under the same parent and returns outer − inner for
// each pair, in microseconds: the time outer spends beyond inner's work.
func (t *tracer) childGapsUS(outer, inner spanName) []float64 {
	var out []float64
	last := map[int64]float64{}
	for _, s := range t.ordered() {
		if s.end == 0 {
			continue
		}
		d := float64(s.end-s.start) / 1e3
		switch s.name {
		case outer:
			last[s.parent] = d
		case inner:
			if o, ok := last[s.parent]; ok {
				out = append(out, o-d)
				delete(last, s.parent)
			}
		}
	}
	return out
}

// writeSpans saves the spans of every tracer as CSV (phase, span id, parent,
// op, name, start_ns, end_ns).
func writeSpans(path string, phases map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase,id,parent,op,name,start_ns,end_ns")
	for _, phase := range []string{"setup", "loop", "probe"} {
		t := phases[phase]
		if t == nil {
			continue
		}
		for _, s := range t.ordered() {
			fmt.Fprintf(w, "%s,%d,%d,%d,%s,%d,%d\n", phase, s.id, s.parent, s.op, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
