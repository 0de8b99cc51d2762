package repro

import (
	"testing"

	"repro/internal/workload"
)

// TestLiveDeltaOnRelationOutsideViews is the regression test for deltas
// touching relations no view mentions: pre-existing rows there must be
// insertable and deletable through the handle without erroring (the
// engine has nothing to maintain for them, but the database and fetch
// indices still apply the ops).
func TestLiveDeltaOnRelationOutsideViews(t *testing.T) {
	s := NewSchema(NewRelation("R", "A", "B"), NewRelation("Extra", "X"))
	a := NewAccessSchema(NewConstraint("Extra", []string{"X"}, []string{"X"}, 1))
	views := map[string]*UCQ{"V": NewUCQ(NewCQ([]Term{Var("x")}, []Atom{NewAtom("R", Var("x"), Var("y"))}))}
	sys, err := NewSystem(s, a, views, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	db.MustInsert("Extra", "e1") // exists BEFORE the handle opens
	db.MustInsert("R", "r1", "r2")
	l, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyDelta([]Op{{Rel: "Extra", Row: Tuple{"e2"}}}, []Op{{Rel: "Extra", Row: Tuple{"e1"}}}); err != nil {
		t.Fatalf("delta on a relation outside all views must apply cleanly: %v", err)
	}
	if n := l.Size(); n != 2 {
		t.Fatalf("handle holds %d rows, want 2 (R's row and Extra's e2)", n)
	}
	// The fetch index was still maintained: probe it through a snapshot.
	snap := l.Snapshot()
	rows, err := snap.Fetch(a.Constraints[0], Tuple{"e2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("fetch after delta: %v", rows)
	}
	if rows, err = snap.Fetch(a.Constraints[0], Tuple{"e1"}); err != nil || len(rows) != 0 {
		t.Fatalf("deleted row still fetched: %v %v", rows, err)
	}
	if snap.FetchedTuples() != 1 {
		t.Fatalf("snapshot accounted %d fetched tuples, want 1", snap.FetchedTuples())
	}
}

// TestExecuteWarmAllocCeiling bounds a warm Execute of ξ0: once the
// epoch's first read has resolved V1 and built the index its join probes,
// a call must allocate far less than once per V1 row — else the extent is
// re-encoded or re-indexed per call.
func TestExecuteWarmAllocCeiling(t *testing.T) {
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 2000, Movies: 2000, LikesPerPerson: 5, NASAShare: 8, Seed: 1})
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p := m.Fig1Plan()
	if _, _, err := h.Execute(p); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, _, err := h.Execute(p); err != nil {
			t.Fatal(err)
		}
	})
	perView := float64(len(h.Views()["V1"]))
	if perView < 500 {
		t.Fatalf("fixture too small: |V1| = %.0f", perView)
	}
	if warm >= perView {
		t.Fatalf("warm Execute allocates %.0f times — looks like the %.0f-row view extent is re-encoded per call", warm, perView)
	}
}
