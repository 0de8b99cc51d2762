package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/workload"
)

func liveMovieFixture(t *testing.T, persons, movies int) (*System, *workload.Movies, *Live, *Database, Plan) {
	t.Helper()
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: persons, Movies: movies, LikesPerPerson: 5, NASAShare: 8, Seed: 1})
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return sys, m, h.(*Live), db, m.Fig1Plan()
}

// assertLiveFresh checks the handle's answers and views against full
// recomputation over db, a mirror fed the same batches as the handle.
func assertLiveFresh(t *testing.T, sys *System, l *Live, db *Database, p Plan, q *UCQ) {
	t.Helper()
	rows, _, err := l.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eval.UCQOnDB(q, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	eval.SortRows(rows)
	eval.SortRows(direct)
	if fmt.Sprint(rows) != fmt.Sprint(direct) {
		t.Fatalf("live plan answers stale:\ngot  %v\nwant %v", rows, direct)
	}
	fresh, err := sys.Materialize(db)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Views()
	for name, want := range fresh {
		g := got[name]
		eval.SortRows(g)
		eval.SortRows(want)
		if fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("live view %s stale: %d rows vs %d recomputed", name, len(g), len(want))
		}
	}
}

// TestLiveServesFreshAnswersUnderChurn drives batched churn through a
// Live handle and checks that plan answers and view extents match full
// recomputation and that the fetch bound holds after every batch (scale
// independence under updates). The small input is recomputed after every
// batch; the larger ones (1.25k, 12.5k and 50k persons at N0 = 50) apply
// 26 batches of 1% of |D| and are recomputed once, at the end.
func TestLiveServesFreshAnswersUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		n0         int
		params     workload.MoviesParams
		churnSeed  int64
		batches    int
		batch      int // ops per batch; 0 means 1% of |D|
		freshEvery bool
	}{
		{30, workload.MoviesParams{Persons: 400, Movies: 400, LikesPerPerson: 5, NASAShare: 8, Seed: 1}, 3, 12, 150, true},
		{50, workload.MoviesParams{Persons: 1250, Movies: 1250, LikesPerPerson: 5, NASAShare: 10, Seed: 7}, 1, 26, 0, false},
		{50, workload.MoviesParams{Persons: 12500, Movies: 12500, LikesPerPerson: 5, NASAShare: 10, Seed: 7}, 1, 26, 0, false},
		{50, workload.MoviesParams{Persons: 50000, Movies: 50000, LikesPerPerson: 5, NASAShare: 10, Seed: 7}, 1, 26, 0, false},
	} {
		t.Run(fmt.Sprintf("persons=%d", tc.params.Persons), func(t *testing.T) {
			if raceEnabled && tc.params.Persons >= 50000 {
				t.Skip("largest input: skipped under the race detector")
			}
			sys, m := movieSystemN0(t, tc.n0)
			db := m.Generate(tc.params)
			mirror := db.Clone()
			ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: tc.churnSeed})
			h, err := sys.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			l, p, q0 := h.(*Live), m.Fig1Plan(), NewUCQ(m.Q0)
			if tc.freshEvery {
				assertLiveFresh(t, sys, l, mirror, p, q0)
			}
			batch := tc.batch
			if batch == 0 {
				batch = db.Size() / 100
			}
			worst := 0
			for b := 0; b < tc.batches; b++ {
				ins, del := ch.Batch(batch)
				st, err := l.ApplyDelta(ins, del)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mirror.ApplyDelta(ins, del); err != nil {
					t.Fatal(err)
				}
				if st.Inserted == 0 && st.Deleted == 0 {
					t.Fatal("batch applied nothing")
				}
				_, fetched, err := l.Execute(p)
				if err != nil {
					t.Fatal(err)
				}
				if fetched > 2*m.N0 {
					t.Fatalf("batch %d: fetched %d > 2·N0 — scale independence lost under churn", b, fetched)
				}
				worst = max(worst, fetched)
				if tc.freshEvery {
					assertLiveFresh(t, sys, l, mirror, p, q0)
				}
			}
			if !tc.freshEvery {
				assertLiveFresh(t, sys, l, mirror, p, q0)
			}
			t.Logf("|D| = %d, %d batches of %d ops: max fetched %d <= 2·N0 = %d", l.Size(), tc.batches, batch, worst, 2*m.N0)
		})
	}
}

// TestLiveConcurrentReadersAndWriter runs concurrent Execute calls
// against a writer applying deltas; the race detector (CI runs -race)
// verifies the epoch publication discipline, and every read must return a
// consistent pre- or post-batch answer — never an error or a torn read.
// Under epochs, per-call fetch attribution is exact even while readers
// overlap, so the 2·N0 bound is asserted for every concurrent call.
func TestLiveConcurrentReadersAndWriter(t *testing.T) {
	_, m, l, db, p := liveMovieFixture(t, 300, 300)
	ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: 11})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, fetched, err := l.Execute(p)
				if err != nil {
					errCh <- err
					return
				}
				if fetched > 2*m.N0 {
					errCh <- fmt.Errorf("fetched %d > 2·N0 under concurrency — per-call attribution broke", fetched)
					return
				}
				for _, row := range rows {
					if len(row) != 1 {
						errCh <- fmt.Errorf("torn row %v", row)
						return
					}
				}
				_ = l.Views()
				_ = l.Size()
			}
		}()
	}
	for b := 0; b < 30; b++ {
		ins, del := ch.Batch(60)
		if _, err := l.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

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
