package plan

import (
	"math"
	"testing"

	"repro/internal/access"
)

// hugeTree builds a left-deep Product of `leaves` copies of a view whose
// stated cardinality is near the int64 ceiling: the row estimate
// overflows float64 to +Inf well before 20 leaves.
func hugeTree(leaves int) Node {
	var n Node = &View{Name: "H", Cols: []string{"a"}}
	for i := 1; i < leaves; i++ {
		n = &Product{L: n, R: &View{Name: "H", Cols: []string{"a"}}}
	}
	return n
}

// nonFiniteStats prices view H at ~9e18 rows and view Z at zero.
func nonFiniteStats() *Stats {
	return &Stats{ViewRows: map[string]int{"H": int(1) << 62, "Z": 0}}
}

// Best must skip candidates whose score overflows to +Inf or collapses to
// NaN (0 * Inf in the product arithmetic) — a non-finite first slot used
// to win every comparison and be kept forever.
func TestBestSkipsNonFinite(t *testing.T) {
	st := nonFiniteStats()
	inf := hugeTree(24)
	if s := Estimate(inf, st).Score(); !math.IsInf(s, 1) {
		t.Fatalf("fixture: huge product tree must score +Inf, got %v", s)
	}
	nan := &Product{L: &View{Name: "Z", Cols: []string{"z"}}, R: hugeTree(24)}
	if s := Estimate(nan, st).Score(); !math.IsNaN(s) {
		t.Fatalf("fixture: 0 x Inf product must score NaN, got %v", s)
	}
	finite := &View{Name: "V", Cols: []string{"a"}}

	for name, cands := range map[string][]Node{
		"nan-first": {nan, inf, finite},
		"inf-first": {inf, nan, finite},
	} {
		best, c := Best(cands, st)
		if best != 2 {
			t.Fatalf("%s: Best must skip non-finite scores, got index %d (%+v)", name, best, c)
		}
		if s := c.Score(); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("%s: returned cost must be finite, got %v", name, s)
		}
	}

	// All non-finite: some candidate must still be returned.
	if best, _ := Best([]Node{nan, inf}, st); best != 0 {
		t.Fatalf("all-non-finite: expected index 0, got %d", best)
	}
	if best, _ := Best(nil, st); best != -1 {
		t.Fatal("empty candidate set must return -1")
	}
}

// Exact ties break deterministically toward the lowest candidate index.
func TestBestTieBreaksByIndex(t *testing.T) {
	a := &View{Name: "V", Cols: []string{"a"}}
	b := &View{Name: "V", Cols: []string{"a"}}
	st := &Stats{ViewRows: map[string]int{"V": 100}}
	if best, _ := Best([]Node{a, b}, st); best != 0 {
		t.Fatalf("tie must keep the lowest index, got %d", best)
	}
	// A leading non-finite candidate must not steal the tie.
	if best, _ := Best([]Node{hugeTree(24), a, b}, nonFiniteStats()); best != 1 {
		t.Fatal("tie after a skipped non-finite slot must keep the first finite candidate")
	}
}

// The observation overlay must replace the estimated group width: same
// plan, same statistics, different ranking once a realized width lands.
func TestEstimateObservedOverridesWidth(t *testing.T) {
	byA := access.NewConstraint("R", []string{"A"}, []string{"B"}, 4096)
	probe := &Fetch{Child: &Const{Attr: "x", Val: "k"}, C: byA, Bind: []string{"x"}, As: []string{"a", "b"}}
	prog, err := Compile(probe)
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{
		RelRows:     map[string]int{"R": 9000},
		RelDistinct: map[string]map[string]int{"R": {"A": 6000, "B": 100}},
	}
	base := Estimate(probe, st)
	if base.Fetch > 10 {
		t.Fatalf("fixture: estimated probe width must be tiny, got %v", base.Fetch)
	}
	// run is the slots of one run of probe whose fetch (op 1) probed in
	// keys and got out tuples.
	run := func(in, out int) []Slot { return []Slot{{Out: 1}, {In: in, Out: out}} }

	obs := NewObservedStats()
	obs.Absorb(prog, run(1, 3000), 0)
	over := prog.Estimate(st, obs)
	if over.Fetch < 2900 || over.Fetch > 3100 {
		t.Fatalf("observed width must replace the estimate: fetch %v", over.Fetch)
	}
	// EWMA: a second, smaller sample pulls the mean 0.3 of the way (to
	// 2400).
	obs.Absorb(prog, run(1, 1000), 0)
	if w, ok := obs.Width(byA.Key()); !ok || w < 2300 || w > 2500 {
		t.Fatalf("EWMA width off: %v (%v)", w, ok)
	}
	if obs.Samples() != 2 {
		t.Fatalf("samples: got %d, want 2", obs.Samples())
	}

	// The overlay is clamped to the constraint's promise N and floored at
	// 0.5 (an observed-empty group must not zero downstream estimates).
	// A single sample is exact.
	obs2 := NewObservedStats()
	obs2.Absorb(prog, run(1, 100000), 0)
	if c := prog.Estimate(st, obs2); c.Fetch > float64(byA.N) {
		t.Fatalf("observed width must clamp to N=%d, got fetch %v", byA.N, c.Fetch)
	}
	obs3 := NewObservedStats()
	obs3.Absorb(prog, run(4, 0), 0)
	if c := prog.Estimate(st, obs3); c.Fetch <= 0 || c.Fetch > 1 {
		t.Fatalf("observed-empty group must floor at 0.5 fetches, got %v", c.Fetch)
	}

	// A nil overlay (and a nil *ObservedStats) is exactly Estimate.
	if got := prog.Estimate(st, nil); got != base {
		t.Fatalf("nil overlay must match Estimate: %+v vs %+v", got, base)
	}
}

// Absorb reports a move exactly when a mean the overlay prices with
// changes: a run that repeats the means moves nothing, a fetch that
// probed no key folds no width, and a run that changes only the answer
// count moves the Rows mean.
func TestAbsorbReportsMoves(t *testing.T) {
	byA := access.NewConstraint("R", []string{"A"}, []string{"B"}, 4096)
	prog, err := Compile(&Fetch{Child: &Const{Attr: "x", Val: "k"}, C: byA, Bind: []string{"x"}, As: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObservedStats()
	slots := []Slot{{Out: 1}, {In: 2, Out: 10}}
	for i, want := range []bool{true, false, false} {
		if got := obs.Absorb(prog, slots, 3); got != want {
			t.Fatalf("run %d: moved %v, want %v", i, got, want)
		}
	}
	if obs.Absorb(prog, []Slot{{Out: 1}, {}}, 3) {
		t.Fatal("a fetch that probed nothing has no width to fold")
	}
	if !obs.Absorb(prog, slots, 4) {
		t.Fatal("a new answer count must move the Rows mean")
	}
	if obs.Samples() != 5 {
		t.Fatalf("samples: got %d, want 5", obs.Samples())
	}
}
