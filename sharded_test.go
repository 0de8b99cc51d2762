package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/workload"
)

// shardCounts covered by the differential harness.
var shardCounts = []int{1, 2, 3, 8}

// ---- random system generator (schema, constraints, views, plans) ----

const diffPool = 9 // instance values and query constants share "v0".."v8"

func diffVal(rng *rand.Rand) string { return fmt.Sprintf("v%d", rng.Intn(diffPool)) }

func diffSchema(rng *rand.Rand) *Schema {
	nRel := 2 + rng.Intn(2)
	rels := make([]*Relation, nRel)
	for i := range rels {
		arity := 1 + rng.Intn(3)
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		rels[i] = NewRelation(fmt.Sprintf("R%d", i), attrs...)
	}
	return NewSchema(rels...)
}

// diffAccess draws 1-2 constraints per relation with random X (sometimes
// empty, so broadcast fetches are exercised) and random non-empty Y.
func diffAccess(rng *rand.Rand, s *Schema) *AccessSchema {
	a := NewAccessSchema()
	for _, r := range s.Relations {
		for k := 0; k < 1+rng.Intn(2); k++ {
			var x, y []string
			for _, attr := range r.Attrs {
				if rng.Float64() < 0.4 {
					x = append(x, attr)
				}
				if rng.Float64() < 0.6 {
					y = append(y, attr)
				}
			}
			if rng.Float64() < 0.2 {
				x = nil
			}
			if len(y) == 0 {
				y = []string{r.Attrs[rng.Intn(r.Arity())]}
			}
			a.Add(NewConstraint(r.Name, x, y, 2+rng.Intn(6)))
		}
	}
	return a
}

// diffView draws a random UCQ view (1-2 disjuncts, 1-3 atoms, shared and
// repeated variables, constants from the value pool).
func diffView(rng *rand.Rand, s *Schema, name string) *UCQ {
	arity := 1 + rng.Intn(2)
	u := &UCQ{Name: name}
	for d := 0; d < 1+rng.Intn(2); d++ {
		var atoms []Atom
		var vars []string
		for a := 0; a < 1+rng.Intn(3); a++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			args := make([]Term, rel.Arity())
			for i := range args {
				switch {
				case rng.Float64() < 0.15:
					args[i] = Cst(diffVal(rng))
				case len(vars) > 0 && rng.Float64() < 0.5:
					args[i] = Var(vars[rng.Intn(len(vars))])
				default:
					v := fmt.Sprintf("x%d", len(vars))
					vars = append(vars, v)
					args[i] = Var(v)
				}
			}
			atoms = append(atoms, Atom{Rel: rel.Name, Args: args})
		}
		head := make([]Term, arity)
		for i := range head {
			if len(vars) == 0 || rng.Float64() < 0.1 {
				head[i] = Cst(diffVal(rng))
			} else {
				head[i] = Var(vars[rng.Intn(len(vars))])
			}
		}
		u.Disjuncts = append(u.Disjuncts, NewCQ(head, atoms))
	}
	return u
}

// diffPlans builds the plan battery run against every handle: a fetch
// plan per constraint (routed or broadcast, with present and absent
// keys), a selection over every view (the gather path), and whatever
// bounded candidates the VBRP search finds for a couple of small random
// queries (the "random queries" leg of the harness).
func diffPlans(t *testing.T, rng *rand.Rand, sys *System) []Plan {
	var plans []Plan
	for _, c := range sys.Access.Constraints {
		if len(c.X) == 0 {
			plans = append(plans, &plan.Fetch{C: c})
			continue
		}
		for trial := 0; trial < 2; trial++ {
			var child plan.Node
			for _, attr := range c.X {
				leaf := plan.Node(&plan.Const{Attr: attr, Val: diffVal(rng)})
				if child == nil {
					child = leaf
				} else {
					child = &plan.Product{L: child, R: leaf}
				}
			}
			plans = append(plans, &plan.Fetch{Child: child, C: c})
		}
	}
	for name, def := range sys.Views {
		arity := len(def.Disjuncts[0].Head)
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = fmt.Sprintf("h%d", i)
		}
		v := &plan.View{Name: name, Cols: cols}
		plans = append(plans, v,
			&plan.Select{Child: v, Cond: []plan.CondItem{{L: cols[0], RConst: true, R: diffVal(rng)}}})
	}
	for q := 0; q < 2; q++ {
		var atoms []Atom
		var vars []string
		for a := 0; a < 1+rng.Intn(2); a++ {
			rel := sys.Schema.Relations[rng.Intn(len(sys.Schema.Relations))]
			args := make([]Term, rel.Arity())
			for i := range args {
				switch {
				case rng.Float64() < 0.4:
					args[i] = Cst(diffVal(rng))
				case len(vars) > 0 && rng.Float64() < 0.4:
					args[i] = Var(vars[rng.Intn(len(vars))])
				default:
					v := fmt.Sprintf("q%d", len(vars))
					vars = append(vars, v)
					args[i] = Var(v)
				}
			}
			atoms = append(atoms, Atom{Rel: rel.Name, Args: args})
		}
		if len(vars) == 0 {
			continue
		}
		cands, err := sys.searchCandidates(NewUCQ(NewCQ([]Term{Var(vars[0])}, atoms)), LangUCQ)
		if err != nil && len(cands) == 0 {
			continue // truncated or unsupported shape: the battery above still covers
		}
		for i, c := range cands {
			if i >= 3 {
				break
			}
			plans = append(plans, c.Plan)
		}
	}
	if len(plans) == 0 {
		t.Fatal("differential battery is empty")
	}
	return plans
}

// assertMatchesOracle runs every plan on each handle and on the static
// oracle — plan.Run over a fetch index built from the mirror database,
// with views materialized from it by full evaluation — requiring identical
// answer rows AND fetch totals, then compares every handle's views with
// the oracle's.
func assertMatchesOracle(t *testing.T, sys *System, plans []Plan, mirror *Database, handles map[int]Handle) {
	t.Helper()
	vx, err := instance.BuildVIndex(mirror.Schema, mirror.Dict, mirror.IDTables(), sys.Access)
	if err != nil {
		t.Fatal(err)
	}
	views, err := eval.Materialize(sys.Views, mirror)
	if err != nil {
		t.Fatal(err)
	}
	pv := plan.PrepareViews(mirror.Dict, views)
	for pi, p := range plans {
		wantRows, wantFetched, wantErr := plan.Run(p, vx, pv)
		for _, pcount := range shardCounts {
			gotRows, gotFetched, gotErr := handles[pcount].Execute(p)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("plan %d, P=%d: error mismatch: oracle %v, handle %v", pi, pcount, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !cq.RowsEqual(gotRows, wantRows) {
				eval.SortRows(gotRows)
				eval.SortRows(wantRows)
				t.Fatalf("plan %d, P=%d: results diverge\nplan:\n%shandle %d rows: %v\noracle %d rows: %v",
					pi, pcount, plan.Render(p), len(gotRows), gotRows, len(wantRows), wantRows)
			}
			if gotFetched != wantFetched {
				t.Fatalf("plan %d, P=%d: fetch totals diverge: handle %d, oracle %d\nplan:\n%s",
					pi, pcount, gotFetched, wantFetched, plan.Render(p))
			}
		}
	}
	for _, pcount := range shardCounts {
		got := handles[pcount].Views()
		for name, w := range views {
			if !cq.RowsEqual(got[name], w) {
				t.Fatalf("P=%d: view %s diverges: %d rows vs %d", pcount, name, len(got[name]), len(w))
			}
		}
	}
}

// TestShardedDifferentialRandom is the sharded differential harness:
// random schemas, access constraints, views, plans and delta streams, run
// on handles with P ∈ {1,2,3,8} and checked against the static oracle
// over a mirror database updated batch by batch. Answer rows, fetch
// totals, per-batch delta stats, sizes and view snapshots must all agree
// at every checkpoint. The stream exercises the row store's multiset
// cases: duplicate inserts of live rows, repeated deletes, deletes of
// absent rows and deletes naming values never interned, which must leave
// the dictionary
// as it was (journal replay relies on the intern order). CI runs this
// under -race.
func TestShardedDifferentialRandom(t *testing.T) {
	const (
		trials     = 3
		batches    = 24
		batchSize  = 18
		checkEvery = 6
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
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

		mirror := seed.Clone()
		handles := map[int]Handle{}
		for _, p := range shardCounts {
			h, err := sys.Open(seed.Clone(), WithShards(p))
			if err != nil {
				t.Fatalf("trial %d, P=%d: %v", trial, p, err)
			}
			handles[p] = h
		}
		plans := diffPlans(t, rng, sys)
		assertMatchesOracle(t, sys, plans, mirror, handles)

		// live multiset per relation so deletes usually hit.
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
				case rng.Float64() < 0.12:
					// Delete of a row that may be absent (no-op path).
					row := make(instance.Tuple, rel.Arity())
					for j := range row {
						row[j] = diffVal(rng)
					}
					del = append(del, Op{Rel: rel.Name, Row: row})
				case rng.Float64() < 0.1:
					// Delete naming a value no handle has interned.
					row := make(instance.Tuple, rel.Arity())
					for j := range row {
						row[j] = diffVal(rng)
					}
					row[rng.Intn(len(row))] = fmt.Sprintf("never-%d-%d", b, o)
					del = append(del, Op{Rel: rel.Name, Row: row})
				case rng.Float64() < 0.08 && len(del) > 0:
					// A repeat of one of the batch's deletes: it claims a
					// second copy, or nothing.
					del = append(del, del[rng.Intn(len(del))])
				case rng.Float64() < 0.15 && len(live[rel.Name]) > 0:
					// Another copy of a live row.
					row := live[rel.Name][rng.Intn(len(live[rel.Name]))].Clone()
					live[rel.Name] = append(live[rel.Name], row)
					ins = append(ins, Op{Rel: rel.Name, Row: row.Clone()})
				default:
					row := make(instance.Tuple, rel.Arity())
					for j := range row {
						row[j] = diffVal(rng)
					}
					live[rel.Name] = append(live[rel.Name], row)
					ins = append(ins, Op{Rel: rel.Name, Row: row.Clone()})
				}
			}
			want, err := mirror.ApplyDelta(ins, del)
			if err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, b, err)
			}
			for _, p := range shardCounts {
				// Only the inserts' new values may grow the dictionary.
				dict := handles[p].(*Live).sh.Dict()
				fresh := map[string]bool{}
				for _, op := range ins {
					for _, v := range op.Row {
						if _, ok := dict.LookupRow([]string{v}); !ok {
							fresh[v] = true
						}
					}
				}
				before := dict.Len()
				got, err := handles[p].ApplyDelta(ins, del)
				if err != nil {
					t.Fatalf("trial %d batch %d P=%d: %v", trial, b, p, err)
				}
				if got.Inserted != len(want.Inserted) || got.Deleted != len(want.Deleted) {
					t.Fatalf("trial %d batch %d P=%d: delta stats diverge: handle %+v, mirror applied %d+%d",
						trial, b, p, got, len(want.Inserted), len(want.Deleted))
				}
				if grown := dict.Len() - before; grown != len(fresh) {
					t.Fatalf("trial %d batch %d P=%d: dictionary grew by %d, the inserts hold %d new values",
						trial, b, p, grown, len(fresh))
				}
				if n := handles[p].Size(); n != mirror.Size() {
					t.Fatalf("trial %d batch %d P=%d: size %d, mirror %d", trial, b, p, n, mirror.Size())
				}
			}
			if b%checkEvery == 0 || b == batches {
				assertMatchesOracle(t, sys, plans, mirror, handles)
			}
		}
	}
}

// TestWithShardsRejectsNonPositive: Open refuses a shard count below 1,
// in memory and durable, instead of picking one silently; the durable
// directory stays fresh for a valid open afterwards.
func TestWithShardsRejectsNonPositive(t *testing.T) {
	sys, m := movieSystem(t)
	gen := func() *Database {
		return m.Generate(workload.MoviesParams{Persons: 40, Movies: 40, LikesPerPerson: 2, NASAShare: 8, Seed: 3})
	}
	dir := t.TempDir()
	for _, p := range []int{0, -3} {
		for _, extra := range [][]OpenOption{nil, {WithDurability(dir)}} {
			h, err := sys.Open(gen(), append([]OpenOption{WithShards(p)}, extra...)...)
			if err == nil {
				h.Close()
				t.Fatalf("WithShards(%d) must be rejected", p)
			}
			if !strings.Contains(err.Error(), "need at least 1 shard") {
				t.Fatalf("WithShards(%d): unexpected error %v", p, err)
			}
		}
	}
	h, err := sys.Open(gen(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if rec := h.(*Live).Recovery(); rec != (RecoveryInfo{}) {
		t.Fatalf("a rejected open left durable state behind: %+v", rec)
	}
}

// TestInterningIndependentOfShardCount: a batch is interned once, in
// batch order, before it is routed to the shards, so the same batches of
// new values build the same dictionary — string for string, ID for ID —
// at P = 1 and P = 8.
func TestInterningIndependentOfShardCount(t *testing.T) {
	w := workload.NewSharded(8)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		t.Fatal(err)
	}
	db := w.Generate(200, 4, 17)
	dicts := map[int]*intern.Dict{}
	var handles []Handle
	for _, p := range []int{1, 8} {
		h, err := sys.Open(db.Clone(), WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		handles = append(handles, h)
		dicts[p] = h.(*Live).sh.Dict()
	}
	for b := 0; b < 20; b++ {
		var ins []Op
		for i := 0; i < 120; i++ {
			uid := fmt.Sprintf("n%d-%d", b, i)
			ins = append(ins,
				Op{Rel: "acct", Row: Tuple{uid, fmt.Sprintf("r%d", (b*120+i)%37)}},
				Op{Rel: "txn", Row: Tuple{uid, fmt.Sprintf("it%d-%d", b, i), "1"}})
		}
		for _, h := range handles {
			if _, err := h.ApplyDelta(ins, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := dicts[1].Len()
	if dicts[8].Len() != n {
		t.Fatalf("dictionary holds %d strings at P = 1, %d at P = 8", n, dicts[8].Len())
	}
	one, eight := dicts[1].StringsRange(0, n), dicts[8].StringsRange(0, n)
	differ := 0
	for i := range one {
		if one[i] != eight[i] {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d IDs name different strings at P = 1 and P = 8", differ, n)
	}
}

// ---- fixture-level end-to-end, concurrency and aliasing tests ----

func shardedFixture(t *testing.T, users, txns, shards int) (*System, *workload.Sharded, *Live, *Database) {
	t.Helper()
	w := workload.NewSharded(8)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		t.Fatal(err)
	}
	db := w.Generate(users, txns, 17)
	snapshot := db.Clone()
	h, err := sys.Open(db, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, h.(*Live), snapshot
}

// TestShardedFixtureServesPointReadsAndViews checks the fixture
// end-to-end: the join view is classified shard-local, prepared point
// queries stay within the fetch bound at any shard count, and both the
// point-read and the gather execution paths answer exactly like
// recomputation.
func TestShardedFixtureServesPointReadsAndViews(t *testing.T) {
	sys, w, sl, snapshot := shardedFixture(t, 400, 5, 4)
	local, global := sl.LocalViews()
	if len(local) != 2 || len(global) != 0 {
		t.Fatalf("VSpend and VPairs must be shard-local (co-partitioned joins): local=%v global=%v", local, global)
	}
	ch := w.NewChurn(snapshot, 23)
	for b := 0; b < 8; b++ {
		ins, del := ch.Batch(120)
		if _, err := sl.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	// Point reads: every uid's prepared query routes, stays bounded, and
	// matches direct evaluation over the mirrored database.
	for i := 0; i < 25; i++ {
		uid := w.UID(i * 7)
		pq, err := sys.Prepare(NewUCQ(w.Query(uid)), LangCQ)
		if err != nil {
			t.Fatalf("uid %s: %v", uid, err)
		}
		rows, fetched, err := pq.Execute(sl)
		if err != nil {
			t.Fatal(err)
		}
		if fetched > w.NTxn {
			t.Fatalf("uid %s: fetched %d > NTxn=%d — point read lost its bound under sharding", uid, fetched, w.NTxn)
		}
		direct, err := sys.EvalDirect(NewUCQ(w.Query(uid)), snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			t.Fatalf("uid %s: sharded answers diverge from recomputation", uid)
		}
	}
	// Gather path: a selection over the shard-local view.
	vplan := &plan.Select{
		Child: &plan.View{Name: "VSpend", Cols: []string{"u", "i"}},
		Cond:  []plan.CondItem{{L: "u", RConst: true, R: w.UID(0)}},
	}
	rows, fetched, err := sl.Execute(vplan)
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 0 {
		t.Fatalf("view-only plan fetched %d tuples from D", fetched)
	}
	vdef := w.Views()["VSpend"]
	wantAll, err := sys.EvalDirect(vdef, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, r := range wantAll {
		if r[0] == w.UID(0) {
			want = append(want, r)
		}
	}
	if !cq.RowsEqual(rows, want) {
		t.Fatalf("gathered view selection diverges: got %v want %v", rows, want)
	}
}

// TestShardedConcurrentReadersAndWriter runs parallel point reads, view
// reads and size probes against a writer applying churn batches — the
// race detector validates the per-shard lock discipline, and every read
// must return well-formed rows, never an error.
func TestShardedConcurrentReadersAndWriter(t *testing.T) {
	sys, w, sl, snapshot := shardedFixture(t, 300, 4, 4)
	ch := w.NewChurn(snapshot, 31)
	queries := make([]*PreparedQuery, 8)
	for i := range queries {
		pq, err := sys.Prepare(NewUCQ(w.Query(w.UID(i*3))), LangCQ)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = pq
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pq := queries[(r+i)%len(queries)]
				rows, fetched, err := pq.Execute(sl)
				if err != nil {
					errCh <- err
					return
				}
				if fetched < 0 {
					errCh <- fmt.Errorf("fetched went backwards: %d", fetched)
					return
				}
				for _, row := range rows {
					if len(row) != 2 {
						errCh <- fmt.Errorf("torn row %v", row)
						return
					}
				}
				if i%16 == 0 {
					_ = sl.Views()
					_ = sl.Size()
				}
			}
		}(r)
	}
	for b := 0; b < 30; b++ {
		ins, del := ch.Batch(80)
		if _, err := sl.ApplyDelta(ins, del); err != nil {
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

// TestShardedNoAliasingOfViewsAndResults mirrors the PR 3 aliasing
// regression for the sharded handle: corrupting everything a caller can
// reach (view snapshots, prepared results) must not change what is served
// next.
func TestShardedNoAliasingOfViewsAndResults(t *testing.T) {
	sys, w, sl, snapshot := shardedFixture(t, 200, 4, 3)
	pq, err := sys.Prepare(NewUCQ(w.Query(w.UID(2))), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	snap := sl.Views()
	for name, rows := range snap {
		for _, row := range rows {
			for i := range row {
				row[i] = "CORRUPTED"
			}
		}
		snap[name] = append(rows, []string{"bogus", "bogus"})
	}
	got1, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got1 {
		for i := range row {
			row[i] = "CORRUPTED"
		}
	}
	fresh := sl.Views()
	mats, err := sys.Materialize(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRows := range mats {
		if !cq.RowsEqual(fresh[name], wantRows) {
			t.Fatalf("view %s served corrupted rows after caller mutation", name)
		}
	}
	got2, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got2, want) {
		t.Fatalf("prepared results alias internal storage: %v vs %v", got2, want)
	}
}
