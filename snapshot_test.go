package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/workload"
)

// snapShardCounts covered by the snapshot differential harness, besides
// the default handle.
var snapShardCounts = []int{1, 2, 8}

// planAnswer canonicalizes one plan execution on a snapshot: rows plus
// the exact per-call fetch total.
func planAnswer(s *Snapshot, p Plan) (string, int, error) {
	rows, fetched, err := s.Execute(p)
	if err != nil {
		return "", 0, err
	}
	eval.SortRows(rows)
	return fmt.Sprint(rows), fetched, nil
}

// frozenState records everything a pinned snapshot promised at pin time.
type frozenState struct {
	snap    *Snapshot
	epoch   uint64
	size    int
	answers []string // per plan: canonical rows
	fetched []int    // per plan: exact fetch total
	views   string   // canonical view snapshot
}

func viewFingerprint(v map[string][][]string) string {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		ext := v[name]
		eval.SortRows(ext)
		out += name + "=" + fmt.Sprint(ext) + ";"
	}
	return out
}

func freezeSnapshot(t *testing.T, s *Snapshot, plans []Plan) frozenState {
	t.Helper()
	st := frozenState{snap: s, epoch: s.Epoch(), size: s.Size(), views: viewFingerprint(s.Views())}
	for _, p := range plans {
		rows, fetched, err := planAnswer(s, p)
		if err != nil {
			rows, fetched = "err:"+err.Error(), -1
		}
		st.answers = append(st.answers, rows)
		st.fetched = append(st.fetched, fetched)
	}
	return st
}

// recheck re-runs every promise of a pinned snapshot and fails on any
// drift: a snapshot must answer EXACTLY as it did when pinned, no matter
// how many batches landed since.
func (f *frozenState) recheck(t *testing.T, label string, plans []Plan) {
	t.Helper()
	if e := f.snap.Epoch(); e != f.epoch {
		t.Fatalf("%s: pinned epoch moved: %d -> %d", label, f.epoch, e)
	}
	if n := f.snap.Size(); n != f.size {
		t.Fatalf("%s: pinned Size drifted: %d -> %d", label, f.size, n)
	}
	if v := viewFingerprint(f.snap.Views()); v != f.views {
		t.Fatalf("%s: pinned Views drifted after later batches", label)
	}
	for i, p := range plans {
		rows, fetched, err := planAnswer(f.snap, p)
		if err != nil {
			rows, fetched = "err:"+err.Error(), -1
		}
		if rows != f.answers[i] {
			t.Fatalf("%s: plan %d answers drifted on the pinned snapshot:\nwas  %s\nnow  %s\nplan:\n%s",
				label, i, f.answers[i], rows, plan.Render(p))
		}
		if fetched != f.fetched[i] {
			t.Fatalf("%s: plan %d fetch total drifted on the pinned snapshot: was %d, now %d",
				label, i, f.fetched[i], fetched)
		}
	}
}

// TestSnapshotDifferentialRandom is the snapshot-consistency harness: on
// random systems, a reader pinned BEFORE ApplyDelta must keep seeing the
// exact pre-batch rows, views, sizes and fetch totals — on the default
// handle and at P ∈ {1, 2, 8} — while batches keep landing, and every
// current epoch must keep matching the default handle's. CI runs this
// under -race.
func TestSnapshotDifferentialRandom(t *testing.T) {
	const (
		trials    = 2
		batches   = 14
		batchSize = 18
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		s := diffSchema(rng)
		a := diffAccess(rng, s)
		views := map[string]*UCQ{}
		for v := 0; v < 1+rng.Intn(3); v++ {
			name := fmt.Sprintf("W%d", v)
			views[name] = diffView(rng, s, name)
		}
		sys, err := NewSystem(s, a, views, 5)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seed := NewDatabase(s)
		for i := 0; i < 80; i++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			row := make([]string, rel.Arity())
			for j := range row {
				row[j] = diffVal(rng)
			}
			seed.MustInsert(rel.Name, row...)
		}

		handles := map[string]Handle{}
		lh, err := sys.Open(seed.Clone())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		handles["live"] = lh
		for _, p := range snapShardCounts {
			h, err := sys.Open(seed.Clone(), WithShards(p))
			if err != nil {
				t.Fatalf("trial %d, P=%d: %v", trial, p, err)
			}
			handles[fmt.Sprintf("P=%d", p)] = h
		}
		plans := diffPlans(t, rng, sys)

		// Pinned snapshots per handle, re-verified after every batch.
		pinned := map[string][]frozenState{}
		for name, h := range handles {
			pinned[name] = append(pinned[name], freezeSnapshot(t, h.Snapshot(), plans))
		}

		live := map[string][]instance.Tuple{}
		for _, rel := range s.Relations {
			for _, tu := range seed.Table(rel.Name).Tuples {
				live[rel.Name] = append(live[rel.Name], tu.Clone())
			}
		}
		for b := 1; b <= batches; b++ {
			var ins, del []Op
			for o := 0; o < batchSize; o++ {
				rel := s.Relations[rng.Intn(len(s.Relations))]
				switch {
				case rng.Float64() < 0.4 && len(live[rel.Name]) > 0:
					i := rng.Intn(len(live[rel.Name]))
					row := live[rel.Name][i]
					live[rel.Name][i] = live[rel.Name][len(live[rel.Name])-1]
					live[rel.Name] = live[rel.Name][:len(live[rel.Name])-1]
					del = append(del, Op{Rel: rel.Name, Row: row})
				default:
					row := make(instance.Tuple, rel.Arity())
					for j := range row {
						row[j] = diffVal(rng)
					}
					live[rel.Name] = append(live[rel.Name], row)
					ins = append(ins, Op{Rel: rel.Name, Row: row.Clone()})
				}
			}
			for name, h := range handles {
				if _, err := h.ApplyDelta(ins, del); err != nil {
					t.Fatalf("trial %d batch %d %s: %v", trial, b, name, err)
				}
			}
			// Every pinned snapshot still answers pre-batch.
			for name, states := range pinned {
				for i := range states {
					states[i].recheck(t, fmt.Sprintf("trial %d batch %d %s pin %d", trial, b, name, i), plans)
				}
			}
			// Fresh snapshots agree across shard counts (the default handle
			// is the reference).
			ref := freezeSnapshot(t, handles["live"].Snapshot(), plans)
			for name, h := range handles {
				if name == "live" {
					continue
				}
				got := freezeSnapshot(t, h.Snapshot(), plans)
				if got.views != ref.views {
					t.Fatalf("trial %d batch %d: %s current views diverge from the default handle", trial, b, name)
				}
				for i := range plans {
					if got.answers[i] != ref.answers[i] || got.fetched[i] != ref.fetched[i] {
						t.Fatalf("trial %d batch %d: %s plan %d diverges from the default handle (rows or fetch totals)",
							trial, b, name, i)
					}
				}
			}
			// Pin the fresh state too, dropping older pins occasionally so
			// superseded epochs can actually be collected.
			for name, h := range handles {
				pinned[name] = append(pinned[name], freezeSnapshot(t, h.Snapshot(), plans))
				if len(pinned[name]) > 4 {
					pinned[name] = pinned[name][len(pinned[name])-4:]
				}
			}
		}
	}
}

// TestSnapshotCrossShardConsistencyUnderConcurrency is the torn-read
// regression PR 4 documented as an accepted gap: a read overlapping a
// delta could observe the batch applied on some shards and not others.
// Under epochs every snapshot must correspond to EXACTLY one point of the
// batch history on every shard at once. The writer's batch sequence is
// pre-played on a mirror database to record the expected state per epoch;
// concurrent readers then pin snapshots mid-churn and their epoch number
// must fully determine everything they see. Runs under -race in CI.
func TestSnapshotCrossShardConsistencyUnderConcurrency(t *testing.T) {
	const (
		shards  = 8
		batches = 40
		ops     = 60
		readers = 4
	)
	w, sys, db := shardedWorkload(t, 300, 4)
	mirror := db.Clone()
	h, err := sys.Open(db, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	ch := w.NewChurn(mirror.Clone(), 77)

	// Pre-play the batch history: epoch seq -> expected view fingerprint
	// and expected answer of a battery of point queries.
	pqs := make([]*PreparedQuery, 6)
	for i := range pqs {
		pq, err := sys.Prepare(NewUCQ(w.Query(w.UID(i*11))), LangCQ)
		if err != nil {
			t.Fatal(err)
		}
		pqs[i] = pq
	}
	type expect struct {
		views   string
		answers []string
	}
	history := make([]expect, batches+1)
	batchIns := make([][]Op, batches)
	batchDel := make([][]Op, batches)
	record := func(epoch int) {
		views, err := sys.Materialize(mirror)
		if err != nil {
			t.Fatal(err)
		}
		e := expect{views: viewFingerprint(views)}
		for i := range pqs {
			direct, err := sys.EvalDirect(NewUCQ(w.Query(w.UID(i*11))), mirror)
			if err != nil {
				t.Fatal(err)
			}
			eval.SortRows(direct)
			e.answers = append(e.answers, fmt.Sprint(direct))
		}
		history[epoch] = e
	}
	record(0)
	for b := 0; b < batches; b++ {
		ins, del := ch.Batch(ops)
		batchIns[b], batchDel[b] = ins, del
		if _, err := mirror.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		record(b + 1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	checked := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				e := snap.Epoch()
				if e >= uint64(len(history)) {
					errCh <- fmt.Errorf("reader %d: epoch %d beyond the played history", r, e)
					return
				}
				want := history[e]
				if got := viewFingerprint(snap.Views()); got != want.views {
					errCh <- fmt.Errorf("reader %d: TORN READ — snapshot at epoch %d does not match that epoch's cross-shard state", r, e)
					return
				}
				for i, pq := range pqs {
					rows, _, err := pq.ExecuteOn(snap)
					if err != nil {
						errCh <- err
						return
					}
					eval.SortRows(rows)
					if fmt.Sprint(rows) != want.answers[i] {
						errCh <- fmt.Errorf("reader %d: query %d at epoch %d diverges from that epoch's state", r, i, e)
						return
					}
				}
				checked[r]++
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		if _, err := h.ApplyDelta(batchIns[b], batchDel[b]); err != nil {
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
	total := 0
	for _, n := range checked {
		total += n
	}
	if total == 0 {
		t.Fatal("readers validated no snapshots — the race window was never exercised")
	}
}

// shardedWorkload builds the account/transaction fixture used by the
// cross-shard tests.
func shardedWorkload(t *testing.T, users, txns int) (*workload.Sharded, *System, *Database) {
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
	_, m, l, _, p := liveMovieFixture(t, 200, 200)
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
