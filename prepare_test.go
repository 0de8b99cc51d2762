package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/workload"
)

func planPickSystem(t *testing.T) (*System, *workload.PlanPick) {
	t.Helper()
	pp := workload.NewPlanPick(5, 100_000)
	sys, err := NewSystem(pp.Schema, pp.Access, pp.Views(), pp.M)
	if err != nil {
		t.Fatal(err)
	}
	return sys, pp
}

// renamedPlanPickQuery is Q(b) :- R("k", b) under fresh variable names.
func renamedPlanPickQuery(i int) *UCQ {
	q := NewCQ([]Term{Var(fmt.Sprintf("out%d", i))}, []Atom{
		NewAtom("R", Cst("k"), Var(fmt.Sprintf("out%d", i))),
	})
	return NewUCQ(q)
}

// TestPrepareSelectsCheapPlanAndCaches: the handle must serve a plan whose
// realized fetch volume is far below the worst candidate's — at every
// instance size, 500 to 50k rows, with one search — and a
// renamed-but-equivalent query must be answered from the cache with no
// second VBRP search. Negative answers are cached too.
func TestPrepareSelectsCheapPlanAndCaches(t *testing.T) {
	sys, pp := planPickSystem(t)
	var pq *PreparedQuery
	for _, size := range []struct {
		rows int
		seed int64
	}{{4000, 11}, {500, 7}, {5000, 7}, {50000, 7}} {
		db := pp.Generate(size.rows, 4, size.seed)
		l, err := sys.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		if pq, err = sys.Prepare(NewUCQ(pp.Q), LangCQ); err != nil {
			t.Fatal(err)
		}
		if len(pq.Candidates()) < 3 {
			t.Fatalf("expected the view, selective-fetch and whole-table candidates, got %d", len(pq.Candidates()))
		}
		direct, err := sys.EvalDirect(NewUCQ(pp.Q), db)
		if err != nil {
			t.Fatal(err)
		}
		rows, fetched, err := pq.Execute(l)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			t.Fatalf("%d rows: prepared answers diverge: %v vs %v", size.rows, rows, direct)
		}
		worst := -1
		for _, c := range pq.Candidates() {
			crows, f, err := l.Execute(c)
			if err != nil {
				t.Fatal(err)
			}
			if !cq.RowsEqual(crows, direct) {
				t.Fatalf("%d rows: candidate disagrees with direct evaluation:\n%s", size.rows, RenderPlan(c))
			}
			worst = max(worst, f)
		}
		if worst < 2*(fetched+1) {
			t.Fatalf("%d rows: cost selection bought nothing: chosen fetches %d, worst %d", size.rows, fetched, worst)
		}
		t.Logf("%d rows: chosen fetches %d, worst %d (gap >= 2x)", size.rows, fetched, worst)
	}
	if s, _, _ := sys.PrepareCacheStats(); s != 1 {
		t.Fatalf("re-Preparing across instances ran %d searches, want 1", s)
	}

	// Renamed query: cache hit, no second search.
	searches0, _, _ := sys.PrepareCacheStats()
	pq2, err := sys.Prepare(renamedPlanPickQuery(1), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	searches1, hits, _ := sys.PrepareCacheStats()
	if searches1 != searches0 || hits == 0 {
		t.Fatalf("renamed query must hit the cache: searches %d -> %d, hits %d", searches0, searches1, hits)
	}
	if pq2 != pq {
		t.Fatal("equivalent queries must share one handle")
	}

	// A query with no 3-bounded rewriting: the error is cached as well.
	noRw := NewUCQ(NewCQ([]Term{Var("a")}, []Atom{
		NewAtom("R", Var("a"), Var("b")),
		NewAtom("R", Var("b"), Var("c")),
	}))
	if _, err := sys.Prepare(noRw, LangCQ); err != ErrNoBoundedRewriting {
		t.Fatalf("want ErrNoBoundedRewriting, got %v", err)
	}
	s2, _, _ := sys.PrepareCacheStats()
	if _, err := sys.Prepare(noRw, LangCQ); err != ErrNoBoundedRewriting {
		t.Fatalf("negative answer must be cached: %v", err)
	}
	if s3, _, _ := sys.PrepareCacheStats(); s3 != s2 {
		t.Fatal("negative Prepare re-ran the search")
	}
}

// TestPreparedReselectsUnderChurnDrift: the selection must flip when the
// statistics drift. On a small instance the zero-fetch view scan wins;
// after churn grows the view extent past the fetch-weighted break-even,
// the grown epoch's statistics must swing the selection to the selective
// index fetch (observable as fetched > 0), without any new VBRP search.
func TestPreparedReselectsUnderChurnDrift(t *testing.T) {
	sys, pp := planPickSystem(t)
	db := pp.Generate(400, 4, 5)
	l, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	_, fetched0, err := pq.Execute(l)
	if err != nil {
		t.Fatal(err)
	}
	if fetched0 != 0 {
		t.Fatalf("small instance must be served from the view (0 fetches), got %d", fetched0)
	}
	searches0, _, _ := sys.PrepareCacheStats()

	// Grow the instance well past the break-even (~fetchWeight rows) in
	// batches; every epoch publishes its statistics.
	growPlanPick(t, l, 12_000)
	direct, err := sys.EvalDirect(NewUCQ(pp.Q), db)
	if err != nil {
		t.Fatal(err)
	}
	rows, fetched1, err := pq.Execute(l)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(rows, direct) {
		t.Fatal("re-selected plan diverges from direct evaluation")
	}
	if fetched1 == 0 {
		t.Fatal("grown instance must swing the selection to the index fetch")
	}
	if s1, _, _ := sys.PrepareCacheStats(); s1 != searches0 {
		t.Fatal("re-selection must not re-run the VBRP search")
	}
}

// growPlanPick inserts fresh singleton R groups in batches of 500 until
// the handle holds at least size tuples, and returns the inserted ops.
func growPlanPick(t *testing.T, l Handle, size int) []Op {
	t.Helper()
	var all []Op
	for l.Size() < size {
		var ins []Op
		for i := 0; i < 500; i++ {
			n := len(all) + i
			ins = append(ins, Op{Rel: "R", Row: Tuple{fmt.Sprintf("g%d", n), fmt.Sprintf("v%d", n)}})
		}
		if _, err := l.ApplyDelta(ins, nil); err != nil {
			t.Fatal(err)
		}
		all = append(all, ins...)
	}
	return all
}

// TestPreparedReselectsAfterChurnShrinks is the reverse of
// TestPreparedReselectsUnderChurnDrift: grown past the break-even, the
// handle serves the index fetch; shrunk back, the view scan is cheaper
// again, but the incumbent's own price (about one fetched row per key)
// did not move, so no pick re-ranks. The exploration run, at most one
// in exploreEvery executions, serves the cheaper view scan, and feedback
// on that run re-ranks and switches back: the lag is bounded by
// exploreEvery executions, and no execution re-runs the search.
func TestPreparedReselectsAfterChurnShrinks(t *testing.T) {
	sys, pp := planPickSystem(t)
	db := pp.Generate(400, 4, 5)
	l, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, fetched, err := pq.Execute(l); err != nil || fetched != 0 {
		t.Fatalf("small instance must be served from the view: %d fetches, %v", fetched, err)
	}
	searches0, _, _ := sys.PrepareCacheStats()
	grown := growPlanPick(t, l, 12_000)
	if _, fetched, err := pq.Execute(l); err != nil || fetched == 0 {
		t.Fatalf("grown instance must swing the selection to the index fetch: %d fetches, %v", fetched, err)
	}
	for len(grown) > 0 {
		n := min(500, len(grown))
		if _, err := l.ApplyDelta(nil, grown[:n]); err != nil {
			t.Fatal(err)
		}
		grown = grown[n:]
	}
	direct, err := sys.EvalDirect(NewUCQ(pp.Q), db)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := pq.SelectionStats(l)
	back := 0
	for i := 1; i <= exploreEvery && back == 0; i++ {
		rows, fetched, err := pq.Execute(l)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			t.Fatalf("execution %d after the shrink diverges from direct evaluation", i)
		}
		if fetched == 0 {
			back = i
		}
	}
	after, _ := pq.SelectionStats(l)
	if back == 0 {
		t.Fatalf("shrunk instance still served by the index fetch after %d executions: %+v", exploreEvery, after)
	}
	if after.Explorations != before.Explorations+1 || after.Switches != before.Switches+1 {
		t.Fatalf("the return to the view scan must come from one exploration and one switch: before %+v, after %+v", before, after)
	}
	if s1, _, _ := sys.PrepareCacheStats(); s1 != searches0 {
		t.Fatal("re-selection must not re-run the VBRP search")
	}
	t.Logf("selection back on the view scan %d executions after the shrink (%d executions in all)", back, after.Executions)
}

// TestPreparedConcurrentChurnMatchesLockedRecompute is the -race stress
// for the serving layer: parallel Prepare, PreparedQuery.Execute and
// ApplyDelta on one Live handle, with a checkpointing gate that freezes
// the writer and asserts the served answers equal a full locked
// recomputation at that instant.
func TestPreparedConcurrentChurnMatchesLockedRecompute(t *testing.T) {
	sys, pp := planPickSystem(t)
	db := pp.Generate(600, 4, 23)
	mirror := db.Clone() // fed every batch the handle accepts
	l, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}

	var gate sync.RWMutex // writer holds R during batches; checker holds W
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup

	// Writer: churn that respects the access schema — fresh singleton
	// groups plus toggling one existing "k"-row.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			gate.RLock()
			ins := []Op{{Rel: "R", Row: Tuple{fmt.Sprintf("w%d", n), fmt.Sprintf("x%d", n)}}}
			var del []Op
			if n%3 == 0 {
				del = append(del, Op{Rel: "R", Row: Tuple{"k", "kb3"}})
			} else if n%3 == 1 {
				ins = append(ins, Op{Rel: "R", Row: Tuple{"k", "kb3"}})
			}
			_, err := l.ApplyDelta(ins, del)
			if err == nil {
				_, err = mirror.ApplyDelta(ins, del)
			}
			gate.RUnlock()
			if err != nil {
				errCh <- err
				return
			}
			n++
		}
	}()

	// Readers: concurrent Prepare (cache hits) + Execute. ready guarantees
	// every reader completes at least one round before the test winds down.
	var ready sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			readied := false
			markReady := func() {
				if !readied {
					readied = true
					ready.Done()
				}
			}
			defer markReady()
			for i := 0; ; i++ {
				if i > 0 {
					markReady()
				}
				select {
				case <-stop:
					return
				default:
				}
				h, err := sys.Prepare(renamedPlanPickQuery(r*7+i%5), LangCQ)
				if err != nil {
					errCh <- err
					return
				}
				rows, _, err := h.Execute(l)
				if err != nil {
					errCh <- err
					return
				}
				for _, row := range rows {
					if len(row) != 1 {
						errCh <- fmt.Errorf("torn row %v", row)
						return
					}
				}
			}
		}(r)
	}

	// Checker: freeze the writer, compare against full recomputation.
	for c := 0; c < 20; c++ {
		gate.Lock()
		direct, err := sys.EvalDirect(NewUCQ(pp.Q), mirror)
		if err != nil {
			gate.Unlock()
			t.Fatal(err)
		}
		rows, _, err := pq.Execute(l)
		if err != nil {
			gate.Unlock()
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			gate.Unlock()
			t.Fatalf("checkpoint %d: served answers diverge from locked recomputation:\n%v\n%v", c, rows, direct)
		}
		gate.Unlock()
	}
	ready.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if searches, hits, _ := sys.PrepareCacheStats(); searches != 1 || hits == 0 {
		t.Fatalf("all concurrent Prepares were renamings of one query: want 1 search, got %d (hits %d)", searches, hits)
	}
}

// TestNoAliasingOfViewsAndPreparedResults is the regression test that
// Live.Views snapshots and PreparedQuery results never alias internal
// view/index storage: corrupting everything a caller can reach must not
// change what is served next.
func TestNoAliasingOfViewsAndPreparedResults(t *testing.T) {
	sys, pp := planPickSystem(t)
	db := pp.Generate(300, 3, 9)
	l, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Execute(l)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the views snapshot in place.
	snap := l.Views()
	for name, rows := range snap {
		for _, row := range rows {
			for i := range row {
				row[i] = "CORRUPTED"
			}
		}
		snap[name] = append(rows, []string{"bogus", "bogus"})
	}
	// Corrupt the prepared result rows.
	got1, _, err := pq.Execute(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got1 {
		for i := range row {
			row[i] = "CORRUPTED"
		}
	}
	// Fresh reads must be unaffected by either mutation.
	fresh := l.Views()
	mats, err := sys.Materialize(db)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRows := range mats {
		if !cq.RowsEqual(fresh[name], wantRows) {
			t.Fatalf("view %s served corrupted rows after caller mutation", name)
		}
	}
	got2, _, err := pq.Execute(l)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got2, want) {
		t.Fatalf("prepared results alias internal storage: %v vs %v", got2, want)
	}
}

// chainQuery is Q(a) :- R(a,x1), R(x1,x2), ..., R(x_{n-1},x_n): a join
// chain with no 3-bounded rewriting under the planpick access schema —
// each length is a distinct canonical key, so the family fills the
// prepared-query cache with negative entries on demand.
func chainQuery(n int) *UCQ {
	atoms := []Atom{NewAtom("R", Var("a"), Var("x1"))}
	for i := 1; i < n; i++ {
		atoms = append(atoms, NewAtom("R", Var(fmt.Sprintf("x%d", i)), Var(fmt.Sprintf("x%d", i+1))))
	}
	return NewUCQ(NewCQ([]Term{Var("a")}, atoms))
}

// TestPrepareCacheEvictsNegativesFirst: when a bounded cache overflows,
// negative entries (no bounded rewriting) must be evicted before positive
// ones — the old arbitrary-map-entry eviction could drop the hot positive
// entry while the negatives survived — and evictions must be counted. The
// template cache and the concrete cache share the bound, and neither may
// exceed it: chains of distinct lengths overflow both with negatives, and
// rebindings of the positive query's constant overflow the concrete cache
// with positives that all bind the one surviving template.
func TestPrepareCacheEvictsNegativesFirst(t *testing.T) {
	sys, pp := planPickSystem(t)
	sys.prepCacheBound = 4
	sizes := func() (concrete, templates int) {
		sys.prepQMu.Lock()
		defer sys.prepQMu.Unlock()
		return len(sys.prepQ), len(sys.prepT)
	}
	checkBound := func(when string) {
		t.Helper()
		if c, tm := sizes(); c > sys.prepCacheBound || tm > sys.prepCacheBound {
			t.Fatalf("%s: a cache exceeded its bound %d: %d concrete, %d template entries", when, sys.prepCacheBound, c, tm)
		}
	}
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n < 8; n++ {
		if _, err := sys.Prepare(chainQuery(n), LangCQ); err != ErrNoBoundedRewriting {
			t.Fatalf("chain %d: want ErrNoBoundedRewriting, got %v", n, err)
		}
		checkBound(fmt.Sprintf("chain %d", n))
	}
	_, _, evictions := sys.PrepareCacheStats()
	if evictions == 0 {
		t.Fatal("cache overflow must count evictions")
	}
	// The positive entry must have survived: re-Prepare hits the cache
	// (same handle, no new search).
	s0, _, _ := sys.PrepareCacheStats()
	pq2, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	if s1, _, _ := sys.PrepareCacheStats(); s1 != s0 || pq2 != pq {
		t.Fatal("hot positive entry was evicted while negative entries survived")
	}
	// Its template survived the negatives too: rebinding "k" searches
	// nothing, however many bindings overflow the concrete cache.
	for i := 0; i < 3*sys.prepCacheBound; i++ {
		q := NewUCQ(NewCQ([]Term{Var("b")}, []Atom{NewAtom("R", Cst(fmt.Sprintf("k%d", i)), Var("b"))}))
		if _, err := sys.Prepare(q, LangCQ); err != nil {
			t.Fatal(err)
		}
		checkBound(fmt.Sprintf("binding k%d", i))
	}
	if s1, _, _ := sys.PrepareCacheStats(); s1 != s0 {
		t.Fatalf("rebinding a cached template searched again: %d -> %d searches", s0, s1)
	}
}
