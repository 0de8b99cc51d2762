package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/schema"
	"repro/internal/workload"
)

// randViewSchema draws a small random schema: 2-3 relations of arity 1-3.
func randViewSchema(rng *rand.Rand) *schema.Schema {
	nRel := 2 + rng.Intn(2)
	rels := make([]*schema.Relation, nRel)
	for i := range rels {
		arity := 1 + rng.Intn(3)
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		rels[i] = schema.NewRelation(fmt.Sprintf("R%d", i), attrs...)
	}
	return schema.New(rels...)
}

// randView draws a random UCQ view over the schema: 1-2 disjuncts of 1-3
// atoms, with shared variables, repeated variables, and constants from the
// same small pool the instance draws values from (so selections fire).
func randView(rng *rand.Rand, s *schema.Schema, name string, pool int) *cq.UCQ {
	arity := 1 + rng.Intn(2)
	u := &cq.UCQ{Name: name}
	for d := 0; d < 1+rng.Intn(2); d++ {
		var atoms []cq.Atom
		var vars []string
		for a := 0; a < 1+rng.Intn(3); a++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			args := make([]cq.Term, rel.Arity())
			for i := range args {
				switch {
				case rng.Float64() < 0.15:
					args[i] = cq.Cst(fmt.Sprintf("v%d", rng.Intn(pool)))
				case len(vars) > 0 && rng.Float64() < 0.5:
					args[i] = cq.Var(vars[rng.Intn(len(vars))])
				default:
					v := fmt.Sprintf("x%d", len(vars))
					vars = append(vars, v)
					args[i] = cq.Var(v)
				}
			}
			atoms = append(atoms, cq.Atom{Rel: rel.Name, Args: args})
		}
		// Head: `arity` terms drawn from the body's variables (safe by
		// construction) with an occasional constant.
		head := make([]cq.Term, arity)
		for i := range head {
			if len(vars) == 0 || rng.Float64() < 0.1 {
				head[i] = cq.Cst(fmt.Sprintf("v%d", rng.Intn(pool)))
			} else {
				head[i] = cq.Var(vars[rng.Intn(len(vars))])
			}
		}
		// Occasional equality, to exercise normalization in the engine.
		var eqs []cq.Equality
		if len(vars) > 1 && rng.Float64() < 0.3 {
			eqs = append(eqs, cq.Equality{L: cq.Var(vars[rng.Intn(len(vars))]), R: cq.Var(vars[rng.Intn(len(vars))])})
		}
		u.Disjuncts = append(u.Disjuncts, cq.NewCQ(head, atoms, eqs...))
	}
	return u
}

// TestDeltaEngineDifferentialRandom is the live-update differential
// harness: randomized schemas and views, randomized insert/delete streams
// (>= 10k ops in total across trials), with the incremental maintainer's
// extents checked against full recomputation — frequently against the
// interned evaluator (UCQOnDB) and, at sparser checkpoints, against the
// independent naive nested-loop evaluator of equiv_test.go. The engine's
// reported transitions, folded from its opening contents, must rebuild
// its rows and extents at every check. CI runs this under the race
// detector.
func TestDeltaEngineDifferentialRandom(t *testing.T) {
	const (
		trials          = 4
		opsPerTrial     = 2600 // 4 * 2600 = 10400 ops >= 10k
		pool            = 9    // value pool: small, so joins and deletes hit
		maxLive         = 160  // soft cap per relation, keeps the naive oracle fast
		fastCheckEvery  = 250
		naiveCheckEvery = 1300
	)
	totalOps := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		s := randViewSchema(rng)
		views := map[string]*cq.UCQ{}
		for v := 0; v < 2+rng.Intn(2); v++ {
			name := fmt.Sprintf("W%d", v)
			views[name] = randView(rng, s, name, pool)
		}
		db := instance.NewDatabase(s)
		// Seed some contents before the engine opens, so the initial
		// counted extents are non-trivial.
		for i := 0; i < 60; i++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			db.MustInsert(rel.Name, randRow(rng, rel.Arity(), pool)...)
		}
		e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertEngineFresh(t, e, db, views, true)
		mirror := mirrorOf(e)

		// live tracks the multiset of rows per relation so deletes mostly
		// hit existing rows (absent deletes are exercised too).
		live := map[string][]instance.Tuple{}
		for _, rel := range s.Relations {
			for _, tu := range db.Table(rel.Name).Tuples {
				live[rel.Name] = append(live[rel.Name], tu.Clone())
			}
		}
		for op := 1; op <= opsPerTrial; op++ {
			totalOps++
			rel := s.Relations[rng.Intn(len(s.Relations))]
			var ins, del []instance.Op
			wantDelete := rng.Float64() < 0.45 || len(live[rel.Name]) > maxLive
			switch {
			case wantDelete && len(live[rel.Name]) > 0 && rng.Float64() < 0.9:
				// Delete a row that exists.
				i := rng.Intn(len(live[rel.Name]))
				row := live[rel.Name][i]
				live[rel.Name][i] = live[rel.Name][len(live[rel.Name])-1]
				live[rel.Name] = live[rel.Name][:len(live[rel.Name])-1]
				del = append(del, instance.Op{Rel: rel.Name, Row: row})
			case wantDelete:
				// Delete a row that may not exist (no-op path).
				del = append(del, instance.Op{Rel: rel.Name, Row: randRow(rng, rel.Arity(), pool)})
			default:
				row := instance.Tuple(randRow(rng, rel.Arity(), pool))
				live[rel.Name] = append(live[rel.Name], row)
				ins = append(ins, instance.Op{Rel: rel.Name, Row: row})
			}
			// Occasionally batch several ops at once (incl. delete+insert
			// of the same row within one batch).
			if rng.Float64() < 0.1 && len(live[rel.Name]) > 0 {
				row := live[rel.Name][rng.Intn(len(live[rel.Name]))]
				del = append(del, instance.Op{Rel: rel.Name, Row: row.Clone()})
				ins = append(ins, instance.Op{Rel: rel.Name, Row: row.Clone()})
			}
			a, err := db.ApplyDelta(ins, del)
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			trans, err := e.Apply(a)
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			mirror.fold(t, trans)
			if op%fastCheckEvery == 0 {
				assertEngineFresh(t, e, db, views, false)
				mirror.check(t, e)
			}
			if op%naiveCheckEvery == 0 {
				assertEngineFresh(t, e, db, views, true)
			}
		}
		assertEngineFresh(t, e, db, views, true)
		mirror.check(t, e)
	}
	if totalOps < 10000 {
		t.Fatalf("stream too short: %d ops", totalOps)
	}
}

// assertEngineFresh checks every view extent against full recomputation:
// the interned evaluator always, and additionally the independent naive
// evaluator when naive is set.
func assertEngineFresh(t *testing.T, e *DeltaEngine, db *instance.Database, views map[string]*cq.UCQ, naive bool) {
	t.Helper()
	// The engine's row store holds the database's rows, copies included.
	if e.Size() != db.Size() {
		t.Fatalf("engine stores %d rows, database holds %d", e.Size(), db.Size())
	}
	for _, rel := range db.Schema.Relations {
		rows := db.Table(rel.Name).IDRows()
		stored := e.dict.DecodeAll(e.Rows(rel.Name))
		if !cq.RowsEqual(stored, db.Dict.DecodeAll(rows)) {
			t.Fatalf("relation %s: engine stores %d rows, database holds %d", rel.Name, len(stored), len(rows))
		}
	}
	got := e.Views()
	src := &Source{DB: db}
	for name, def := range views {
		want, err := UCQOnDB(def, src)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(got[name], want) {
			slices.SortFunc(want, slices.Compare)
			g := append([][]string{}, got[name]...)
			slices.SortFunc(g, slices.Compare)
			t.Fatalf("view %s (|D|=%d) incremental != recompute\ngot  %d rows: %v\nwant %d rows: %v",
				name, db.Size(), len(g), g, len(want), want)
		}
		if naive {
			ref := naiveUCQ(t, def, src)
			if !cq.RowsEqual(got[name], ref) {
				t.Fatalf("view %s: interned recompute and naive reference disagree (%d vs %d rows)",
					name, len(got[name]), len(ref))
			}
		}
	}
}

// Rows returns a stored relation's rows, each repeated by its
// multiplicity, in unspecified order (nil for a relation the engine does
// not store). The rows are shared; treat them as read-only.
func (e *DeltaEngine) Rows(rel string) [][]uint32 {
	rs, ok := e.rels[rel]
	if !ok {
		return nil
	}
	out := make([][]uint32, 0, rs.rows)
	e.EachRow(rel, func(row []uint32, n int) {
		for i := 0; i < n; i++ {
			out = append(out, row)
		}
	})
	return out
}

// Views decodes the current extents, as strings.
func (e *DeltaEngine) Views() map[string][][]string {
	out := make(map[string][][]string, len(e.views))
	for name, v := range e.views {
		out[name] = e.dict.DecodeAll(v.rows.appendRows(nil))
		if out[name] == nil {
			out[name] = [][]string{}
		}
	}
	return out
}

// transitionMirror rebuilds an engine's distinct stored rows and view
// extents from its reported transitions alone, keyed "rel R" / "view V"
// and then by the row.
type transitionMirror map[string]map[string]bool

// mirrorOf reads an engine's current contents into a mirror.
func mirrorOf(e *DeltaEngine) transitionMirror {
	m := transitionMirror{}
	for rel := range e.rels {
		set := map[string]bool{}
		e.EachRow(rel, func(row []uint32, _ int) { set[fmt.Sprint(row)] = true })
		m["rel "+rel] = set
	}
	for name, v := range e.views {
		set := map[string]bool{}
		for _, row := range v.rows.appendRows(nil) {
			set[fmt.Sprint(row)] = true
		}
		m["view "+name] = set
	}
	return m
}

// fold applies one Apply's transitions: each must move a row into a set
// that lacks it or out of one that holds it.
func (m transitionMirror) fold(t *testing.T, trans []Transition) {
	t.Helper()
	for _, tr := range trans {
		key := "rel " + tr.Name
		if tr.View {
			key = "view " + tr.Name
		}
		row := fmt.Sprint(tr.Row)
		if m[key][row] == (tr.Sign > 0) {
			t.Fatalf("%s: transition %+d of row %s contradicts the set (holds the row: %v)", key, tr.Sign, row, m[key][row])
		}
		if tr.Sign > 0 {
			m[key][row] = true
		} else {
			delete(m[key], row)
		}
	}
}

// check compares the mirror with the engine's contents.
func (m transitionMirror) check(t *testing.T, e *DeltaEngine) {
	t.Helper()
	if fresh := mirrorOf(e); !reflect.DeepEqual(m, fresh) {
		t.Fatalf("transitions rebuild\n%v\nengine holds\n%v", m, fresh)
	}
}

func randRow(rng *rand.Rand, arity, pool int) []string {
	row := make([]string, arity)
	for i := range row {
		row[i] = fmt.Sprintf("v%d", rng.Intn(pool))
	}
	return row
}

// TestDeltaEngineConstantAndEmptyDisjuncts pins the edge cases the random
// harness hits rarely: constant heads, unsatisfiable disjuncts, and
// cross-product steps with no bound columns.
func TestDeltaEngineConstantAndEmptyDisjuncts(t *testing.T) {
	s := schema.New(schema.NewRelation("E", "A", "B"), schema.NewRelation("L", "X"))
	// W1: cross product with constant head column.
	w1 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Cst("k")}, []cq.Atom{
		cq.NewAtom("L", cq.Var("x")),
		cq.NewAtom("E", cq.Var("y"), cq.Var("z")),
	})
	// W2 second disjunct is unsatisfiable ("a"="b").
	w2a := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("L", cq.Var("x"))})
	w2b := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("L", cq.Var("x"))},
		cq.Equality{L: cq.Cst("a"), R: cq.Cst("b")})
	views := map[string]*cq.UCQ{"W1": cq.NewUCQ(w1), "W2": {Name: "W2", Disjuncts: []*cq.CQ{w2a, w2b}}}
	db := instance.NewDatabase(s)
	e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(ins, del []instance.Op) {
		t.Helper()
		a, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(a); err != nil {
			t.Fatal(err)
		}
		assertEngineFresh(t, e, db, views, true)
	}
	step([]instance.Op{{Rel: "L", Row: instance.Tuple{"n1"}}}, nil)
	if len(e.Views()["W1"]) != 0 {
		t.Fatal("W1 must stay empty without E rows")
	}
	step([]instance.Op{{Rel: "E", Row: instance.Tuple{"n1", "n2"}}}, nil)
	if !cq.RowsEqual(e.Views()["W1"], [][]string{{"n1", "k"}}) {
		t.Fatalf("W1 = %v", e.Views()["W1"])
	}
	// Duplicate insert: set semantics, no change; then remove one copy
	// (still supported), then the last copy (retracted).
	step([]instance.Op{{Rel: "E", Row: instance.Tuple{"n1", "n2"}}}, nil)
	step(nil, []instance.Op{{Rel: "E", Row: instance.Tuple{"n1", "n2"}}})
	if len(e.Views()["W1"]) != 1 {
		t.Fatal("one E copy remains: W1 must still hold")
	}
	step(nil, []instance.Op{{Rel: "E", Row: instance.Tuple{"n1", "n2"}}})
	if len(e.Views()["W1"]) != 0 {
		t.Fatal("last E copy gone: W1 must be empty")
	}
}

// engineFixture: V1(x,z) are the 2-paths of E, V2(x) the labeled nodes
// with an out-edge.
func engineFixture(t *testing.T) (*instance.Database, *DeltaEngine, map[string]*cq.UCQ) {
	t.Helper()
	s := schema.New(schema.NewRelation("E", "A", "B"), schema.NewRelation("L", "X"))
	v1 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("z")}, []cq.Atom{
		cq.NewAtom("E", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("E", cq.Var("y"), cq.Var("z")),
	})
	v2 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{
		cq.NewAtom("L", cq.Var("x")),
		cq.NewAtom("E", cq.Var("x"), cq.Var("y")),
	})
	views := map[string]*cq.UCQ{"V1": cq.NewUCQ(v1), "V2": cq.NewUCQ(v2)}
	db := instance.NewDatabase(s)
	e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, e, views
}

// applyFresh applies one batch to db and the engine and checks every view
// against recomputation.
func applyFresh(t *testing.T, db *instance.Database, e *DeltaEngine, views map[string]*cq.UCQ, ins, del []instance.Op) {
	t.Helper()
	a, err := db.ApplyDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(a); err != nil {
		t.Fatal(err)
	}
	assertEngineFresh(t, e, db, views, false)
}

// TestDeltaEngineDeleteRetracts: deleting the middle edge of the only
// 2-path retracts it from V1; absent deletes are no-ops, and a batch the
// database rejects (wrong arity) changes nothing.
func TestDeltaEngineDeleteRetracts(t *testing.T) {
	db, e, views := engineFixture(t)
	var ins []instance.Op
	for _, ab := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		ins = append(ins, instance.Op{Rel: "E", Row: instance.Tuple{ab[0], ab[1]}})
	}
	ins = append(ins, instance.Op{Rel: "L", Row: instance.Tuple{"a"}})
	applyFresh(t, db, e, views, ins, nil)
	applyFresh(t, db, e, views, nil, []instance.Op{{Rel: "E", Row: instance.Tuple{"b", "c"}}})
	if got := e.Views()["V1"]; len(got) != 0 {
		t.Fatalf("after deleting b→c no 2-path remains, got %v", got)
	}
	applyFresh(t, db, e, views, nil, []instance.Op{{Rel: "E", Row: instance.Tuple{"zz", "zz"}}})
	if _, err := db.ApplyDelta(nil, []instance.Op{{Rel: "E", Row: instance.Tuple{"a"}}}); err == nil {
		t.Fatal("a delete with the wrong arity must be rejected")
	}
	assertEngineFresh(t, e, db, views, false)
}

// TestDeltaEngineConstantAtomBinding: a view with a constant in an atom
// reacts only to inserts that match the constant.
func TestDeltaEngineConstantAtomBinding(t *testing.T) {
	s := schema.New(schema.NewRelation("E", "A", "B"))
	v := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("E", cq.Cst("hub"), cq.Var("x"))})
	views := map[string]*cq.UCQ{"V": cq.NewUCQ(v)}
	db := instance.NewDatabase(s)
	e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyFresh(t, db, e, views, []instance.Op{{Rel: "E", Row: instance.Tuple{"other", "1"}}}, nil)
	if len(e.Views()["V"]) != 0 {
		t.Fatal("non-matching insert must not affect the view")
	}
	applyFresh(t, db, e, views, []instance.Op{{Rel: "E", Row: instance.Tuple{"hub", "1"}}}, nil)
	if !cq.RowsEqual(e.Views()["V"], [][]string{{"1"}}) {
		t.Fatalf("got %v", e.Views()["V"])
	}
}

// TestDeltaTxnChurnAllocs bounds one txn insert and its delete on the
// Sharded fixture. Each enumerates every delta plan the txn relation
// triggers, over scratch buffers the plans keep between calls, so what
// allocates is the change itself: the stored row, its support and index
// entries, and the view rows it derives.
func TestDeltaTxnChurnAllocs(t *testing.T) {
	w := workload.NewSharded(8)
	db := w.Generate(200, 5, 3)
	e, err := NewDeltaEngine(w.Schema, db.Dict, db.IDTables(), w.Views(), nil)
	if err != nil {
		t.Fatal(err)
	}
	op := []instance.AppliedOp{{Rel: "txn", IDs: db.Dict.Encode([]string{w.UID(7), "churn-item", "9"})}}
	ins, del := &instance.Applied{Inserted: op}, &instance.Applied{Deleted: op}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Apply(ins); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(del); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("txn insert + delete: %.1f allocs", allocs)
	if allocs > 3 {
		t.Fatalf("txn insert + delete allocates %.1f times, budget 3", allocs)
	}
}

// TestJoinIndex: a join index group keeps its rows in insertion order
// until removeRow swaps the group's last row into the hole; removing an
// absent row reports false; removing a group's last row drops the group;
// and empty key positions make one group of every row, which a
// cross-product step probes.
func TestJoinIndex(t *testing.T) {
	ix := intern.NewGrouper[[][]uint32]([]int{0})
	for _, r := range [][]uint32{{1, 10}, {1, 11}, {1, 12}, {2, 20}} {
		addRow(ix, r)
	}
	group := func(key uint32) [][]uint32 {
		if g := ix.GetAt([]uint32{5, key}, []int{1}); g != nil {
			return *g
		}
		return nil
	}
	if got := group(1); fmt.Sprint(got) != "[[1 10] [1 11] [1 12]]" {
		t.Fatalf("group 1 holds %v", got)
	}
	if group(3) != nil {
		t.Fatal("an absent key must have no group")
	}
	if !removeRow(ix, []uint32{1, 10}) {
		t.Fatal("removeRow must find an indexed row by value")
	}
	if got := group(1); fmt.Sprint(got) != "[[1 12] [1 11]]" {
		t.Fatalf("swap-delete: group 1 holds %v, want rows 12 and 11", got)
	}
	if removeRow(ix, []uint32{1, 10}) || removeRow(ix, []uint32{3, 30}) {
		t.Fatal("removing an absent row (in a present group or an absent one) must report false")
	}
	groups := 0
	ix.Each(func([]uint32, *[][]uint32) { groups++ })
	if !removeRow(ix, []uint32{2, 20}) || group(2) != nil || groups != 2 {
		t.Fatalf("removing the last row of group 2 must drop it (%d groups before)", groups)
	}
	groups = 0
	ix.Each(func([]uint32, *[][]uint32) { groups++ })
	if groups != 1 {
		t.Fatalf("%d groups left, want 1", groups)
	}

	all := intern.NewGrouper[[][]uint32](nil)
	addRow(all, []uint32{1})
	addRow(all, []uint32{2})
	if g := all.GetAt([]uint32{7}, nil); g == nil || len(*g) != 2 {
		t.Fatalf("empty key positions: want one group of the 2 rows, got %v", g)
	}
}
