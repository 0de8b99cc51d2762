package repro

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

func viewFingerprint(v map[string][][]string) string {
	out := ""
	for _, name := range slices.Sorted(maps.Keys(v)) {
		slices.SortFunc(v[name], slices.Compare)
		out += name + "=" + fmt.Sprint(v[name]) + ";"
	}
	return out
}

// shardedWorkload builds the account/transaction fixture used by the
// cross-shard tests.
func shardedWorkload(t testing.TB, users, txns int) (*workload.Sharded, *System, *Database) {
	t.Helper()
	w := workload.NewSharded(8)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys, w.Generate(users, txns, 17)
}

// TestSnapshotFetchAccounting pins the per-snapshot and per-handle
// accounting: per-call totals are exact and repeatable on a pinned
// snapshot, snapshot totals accumulate only that snapshot's traffic, and
// the handle totals accumulate everything.
func TestSnapshotFetchAccounting(t *testing.T) {
	sys, m := movieSystem(t)
	l, err := sys.Open(m.Generate(workload.MoviesParams{Persons: 200, Movies: 200, LikesPerPerson: 5, NASAShare: 8, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Fig1Plan()
	s1 := l.Snapshot()
	rows1, f1, err := s1.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := s1.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("repeat Execute on one snapshot fetched %d then %d — per-call attribution broke", f1, f2)
	}
	if got := s1.FetchedTuples(); got != f1+f2 {
		t.Fatalf("snapshot accounted %d, want %d", got, f1+f2)
	}
	s2 := l.Snapshot()
	if got := s2.FetchedTuples(); got != 0 {
		t.Fatalf("fresh snapshot starts with %d fetched tuples", got)
	}
	if got := l.FetchedTuples(); got != f1+f2 {
		t.Fatalf("handle accounted %d, want %d", got, f1+f2)
	}
	if len(rows1) == 0 && f1 > 2*m.N0 {
		t.Fatalf("fetch bound violated: %d", f1)
	}
}

// TestFailedCallReportsFetched: a plan that fetches and then fails — a
// product of a fetch chain and a view the system lacks — returns the
// tuples it fetched together with its error, on every entry point
// (Live.Execute, Snapshot.Execute, PreparedQuery.Execute and ExecuteOn),
// so the per-call counts, failed calls included, sum to FetchedTuples.
func TestFailedCallReportsFetched(t *testing.T) {
	w, sys, _ := shardedWorkload(t, 0, 0)
	uid := w.UID(3)
	failing := &plan.Product{
		L: &plan.Fetch{Child: &plan.Const{Attr: "uid", Val: uid}, C: w.Txn},
		R: &plan.View{Name: "missing", Cols: []string{"x"}},
	}
	pq, err := sys.Prepare(NewUCQ(w.Query(uid)), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate becomes the failing plan, so the prepared paths run
	// it whatever they select.
	prog, err := plan.Compile(failing)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pq.cands {
		pq.cands[i].Plan, pq.progs[i] = failing, prog
	}
	for _, p := range []int{1, 4} {
		h, err := sys.Open(w.Generate(40, 5, 17), WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		snap := h.Snapshot()
		calls := map[string]func() (int, error){
			"Live.Execute": func() (int, error) { _, n, err := h.Execute(failing); return n, err },
			"Snapshot.Execute": func() (int, error) {
				_, n, err := snap.Execute(failing)
				return n, err
			},
			"PreparedQuery.Execute": func() (int, error) { _, n, err := pq.Execute(h); return n, err },
			"ExecuteOn":             func() (int, error) { _, n, err := pq.ExecuteOn(snap); return n, err },
		}
		total, onSnap := 0, 0
		for name, call := range calls {
			n, err := call()
			if err == nil {
				t.Fatalf("%s: a plan over a missing view returned no error", name)
			}
			if n == 0 {
				t.Fatalf("%s: the failed call reported no fetched tuples", name)
			}
			total += n
			if name == "Snapshot.Execute" || name == "ExecuteOn" {
				onSnap += n
			}
		}
		if got := h.FetchedTuples(); got != total {
			t.Fatalf("P = %d: handle counted %d fetched tuples, the calls reported %d", p, got, total)
		}
		if got := snap.FetchedTuples(); got != onSnap {
			t.Fatalf("P = %d: snapshot counted %d fetched tuples, its calls reported %d", p, got, onSnap)
		}
		snap.Close()
		h.Close()
	}
}

// TestHandleClose pins Close semantics: writes fail, reads keep serving
// the final epoch, pinned snapshots are unaffected.
func TestHandleClose(t *testing.T) {
	for _, opts := range [][]OpenOption{nil, {WithShards(2)}} {
		sys, m := movieSystem(t)
		db := m.Generate(workload.MoviesParams{Persons: 150, Movies: 150, LikesPerPerson: 4, NASAShare: 8, Seed: 2})
		h, err := sys.Open(db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap := h.Snapshot()
		before := viewFingerprint(h.Views())
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ApplyDelta([]Op{{Rel: "rating", Row: Tuple{"m0", "5"}}}, nil); err != ErrClosed {
			t.Fatalf("ApplyDelta after Close: %v, want ErrClosed", err)
		}
		if got := viewFingerprint(h.Views()); got != before {
			t.Fatal("reads after Close must keep serving the final epoch")
		}
		if got := viewFingerprint(snap.Views()); got != before {
			t.Fatal("pinned snapshot changed after Close")
		}
	}
}
