package plan_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/workload"
)

// refRun is a naive string-level plan interpreter: nested-loop products,
// linear filters, no indices, no memo. It mirrors the executor's bag
// semantics, its fetch count and the profile its slots sum to (a selection
// over a product with a cross-side equality and no ≠ counts as a hash
// join), so the executor's indexed paths can be checked against it row for
// row and counter for counter. It runs sequentially.
type refRun struct {
	vx      *instance.VIndex
	views   plan.Materialized
	obs     profile
	fetches map[string]int // fetch nodes run per constraint key
	fetched int
}

// profile is what a run's slots sum to: per access constraint, the probe
// keys (In) and tuples (Out) of every fetch through it; the hash joins'
// inputs and outputs; the answer count.
type profile struct {
	Groups map[string]plan.Slot
	Joins  plan.Slot
	Rows   int
}

// profileOf sums run x's slots; rows is its answer count.
func profileOf(x *plan.Execution, rows int) profile {
	p, slots := x.Program(), x.Slots()
	pr := profile{Joins: p.Joins(slots), Rows: rows}
	for i := range slots {
		if key, g, ok := p.Group(slots, i); ok {
			if pr.Groups == nil {
				pr.Groups = map[string]plan.Slot{}
			}
			pr.Groups[key] = g
		}
	}
	return pr
}

// fetchStrings probes vx with string values: the decoded distinct
// XY-projections, none for a value that never occurs in D (it is looked up
// as an ID no interned value has).
func fetchStrings(vx *instance.VIndex, c *access.Constraint, xval []string) ([][]string, error) {
	key := make([]uint32, len(xval))
	for i, v := range xval {
		key[i] = ^uint32(0)
		if id, ok := vx.Dict().LookupRow([]string{v}); ok {
			key[i] = id[0]
		}
	}
	rows, err := vx.FetchIDs(c, key)
	if err != nil {
		return nil, err
	}
	return vx.Dict().DecodeAll(rows), nil
}

func (r *refRun) run(n plan.Node) ([][]string, error) {
	switch x := n.(type) {
	case *plan.Const:
		return [][]string{{x.Val}}, nil
	case *plan.View:
		rows, ok := r.views[x.Name]
		if !ok {
			return nil, fmt.Errorf("view %s not materialized", x.Name)
		}
		for _, row := range rows {
			if len(row) != len(x.Cols) {
				return nil, fmt.Errorf("view %s width", x.Name)
			}
		}
		return rows, nil
	case *plan.Fetch:
		inputs := [][]string{{}}
		if x.Child != nil {
			rows, err := r.run(x.Child)
			if err != nil {
				return nil, err
			}
			inputs = distinct(project(rows, x.Child.Attrs(), x.InBind()))
		}
		var out [][]string
		for _, in := range inputs {
			got, err := fetchStrings(r.vx, x.C, in)
			if err != nil {
				return nil, err
			}
			out = append(out, got...)
		}
		if r.obs.Groups == nil {
			r.obs.Groups, r.fetches = map[string]plan.Slot{}, map[string]int{}
		}
		g := r.obs.Groups[x.C.Key()]
		g.In += len(inputs)
		g.Out += len(out)
		r.obs.Groups[x.C.Key()] = g
		r.fetches[x.C.Key()]++
		r.fetched += len(out)
		return out, nil
	case *plan.Project:
		rows, err := r.run(x.Child)
		if err != nil {
			return nil, err
		}
		return project(rows, x.Child.Attrs(), x.Cols), nil
	case *plan.Select:
		var rows [][]string
		var err error
		prod, join := x.Child.(*plan.Product)
		if join = join && isJoin(x.Cond, prod); join {
			var l, rr [][]string
			if l, rr, err = r.sides(prod); err != nil {
				return nil, err
			}
			rows = cross(l, rr)
			r.obs.Joins.In += len(l) + len(rr)
		} else if rows, err = r.run(x.Child); err != nil {
			return nil, err
		}
		attrs := x.Child.Attrs()
		var out [][]string
		for _, row := range rows {
			if condsHold(x.Cond, attrs, row) {
				out = append(out, row)
			}
		}
		if join {
			r.obs.Joins.Out += len(out)
		}
		return out, nil
	case *plan.Product:
		l, rr, err := r.sides(x)
		if err != nil {
			return nil, err
		}
		return cross(l, rr), nil
	case *plan.Union, *plan.Diff:
		kids := n.Children()
		l, err := r.run(kids[0])
		if err != nil {
			return nil, err
		}
		rr, err := r.run(kids[1])
		if err != nil {
			return nil, err
		}
		if _, ok := n.(*plan.Union); ok {
			return append(append([][]string{}, l...), rr...), nil
		}
		drop := map[string]bool{}
		for _, b := range rr {
			drop[strings.Join(b, "\x1f")] = true
		}
		var out [][]string
		for _, a := range l {
			if !drop[strings.Join(a, "\x1f")] {
				out = append(out, a)
			}
		}
		return out, nil
	case *plan.Rename:
		return r.run(x.Child)
	}
	return nil, fmt.Errorf("unknown node %T", n)
}

func (r *refRun) sides(p *plan.Product) (l, rr [][]string, err error) {
	if l, err = r.run(p.L); err != nil {
		return nil, nil, err
	}
	rr, err = r.run(p.R)
	return l, rr, err
}

func cross(l, r [][]string) [][]string {
	var out [][]string
	for _, a := range l {
		for _, b := range r {
			out = append(out, append(append([]string{}, a...), b...))
		}
	}
	return out
}

// isJoin mirrors the executor's hash-join eligibility: no ≠, and some
// attribute equality across the product's sides.
func isJoin(conds []plan.CondItem, prod *plan.Product) bool {
	la, ra := prod.L.Attrs(), prod.R.Attrs()
	cross := false
	for _, c := range conds {
		if c.Neq {
			return false
		}
		if !c.RConst && (has(la, c.L) && has(ra, c.R) || has(ra, c.L) && has(la, c.R)) {
			cross = true
		}
	}
	return cross
}

func has(xs []string, a string) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

func at(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic("no attribute " + a)
}

func condsHold(conds []plan.CondItem, attrs, row []string) bool {
	for _, c := range conds {
		rv := c.R
		if !c.RConst {
			rv = row[at(attrs, c.R)]
		}
		if (row[at(attrs, c.L)] == rv) == c.Neq {
			return false
		}
	}
	return true
}

func project(rows [][]string, attrs, cols []string) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(cols))
		for j, a := range cols {
			out[i][j] = row[at(attrs, a)]
		}
	}
	return out
}

func distinct(rows [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, row := range rows {
		if k := strings.Join(row, "\x1f"); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// viewPlanGen draws random plans over R(A, B, C) and the cached views
// V(2 columns) and W(1 column): joins with a view (often renamed) on
// either side, local constant and same-side conditions, σ[col = c] over
// views, fetches driven by join outputs, unions and differences.
type viewPlanGen struct {
	rng      *rand.Rand
	n        int
	cA, cAll *access.Constraint
}

func (g *viewPlanGen) fresh() string { g.n++; return fmt.Sprintf("a%d", g.n) }
func (g *viewPlanGen) val() string   { return fmt.Sprintf("v%d", g.rng.Intn(7)) }
func (g *viewPlanGen) pick(xs []string) string {
	return xs[g.rng.Intn(len(xs))]
}

func (g *viewPlanGen) view() plan.Node {
	var v plan.Node
	if g.rng.Intn(3) == 0 {
		v = &plan.View{Name: "W", Cols: []string{g.fresh()}}
	} else {
		v = &plan.View{Name: "V", Cols: []string{g.fresh(), g.fresh()}}
	}
	if g.rng.Intn(2) == 0 {
		from := g.pick(v.Attrs())
		v = &plan.Rename{Child: v, Pairs: []plan.RenamePair{{From: from, To: g.fresh()}}}
	}
	return v
}

func (g *viewPlanGen) leaf() plan.Node {
	switch g.rng.Intn(4) {
	case 0:
		return &plan.Const{Attr: g.fresh(), Val: g.val()}
	case 1:
		return &plan.Fetch{C: g.cAll, As: []string{g.fresh()}}
	default:
		return g.view()
	}
}

// conds draws 1–2 conditions over attrs: constant equalities, attribute
// equalities and, rarely, ≠.
func (g *viewPlanGen) conds(attrs []string) []plan.CondItem {
	var out []plan.CondItem
	for k := 1 + g.rng.Intn(2); k > 0; k-- {
		c := plan.CondItem{L: g.pick(attrs), Neq: g.rng.Intn(8) == 0}
		if g.rng.Intn(2) == 0 {
			c.RConst, c.R = true, g.val()
		} else {
			c.R = g.pick(attrs)
		}
		out = append(out, c)
	}
	return out
}

func (g *viewPlanGen) node(depth int) plan.Node {
	if depth == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(8) {
	case 0:
		return g.leaf()
	case 1: // fetch(A ∈ child, R, B) driven by one child column
		child := g.node(depth - 1)
		col := g.pick(child.Attrs())
		return &plan.Fetch{
			Child: &plan.Project{Child: child, Cols: []string{col}},
			C:     g.cA, Bind: []string{col}, As: []string{g.fresh(), g.fresh()},
		}
	case 2:
		child := g.node(depth - 1)
		attrs := child.Attrs()
		cols := []string{g.pick(attrs)}
		if len(attrs) > 1 && g.rng.Intn(2) == 0 {
			if c := g.pick(attrs); c != cols[0] {
				cols = append(cols, c)
			}
		}
		return &plan.Project{Child: child, Cols: cols}
	case 3: // σ over a subtree, often σ[col = c](V)
		child := g.node(depth - 1)
		if g.rng.Intn(2) == 0 {
			child = g.view()
		}
		return &plan.Select{Child: child, Cond: g.conds(child.Attrs())}
	case 4, 5, 6: // σ_eq(L × R), a view on either side
		l, r := g.node(depth-1), g.view()
		if g.rng.Intn(3) == 0 {
			r = g.node(depth - 1)
		}
		if g.rng.Intn(2) == 0 {
			l, r = r, l
		}
		la, ra := l.Attrs(), r.Attrs()
		conds := []plan.CondItem{{L: g.pick(la), R: g.pick(ra)}}
		if g.rng.Intn(2) == 0 {
			conds[0].L, conds[0].R = conds[0].R, conds[0].L
		}
		if g.rng.Intn(3) == 0 && len(la) > 1 && len(ra) > 1 {
			conds = append(conds, plan.CondItem{L: g.pick(la), R: g.pick(ra)})
		}
		if g.rng.Intn(2) == 0 {
			conds = append(conds, g.conds(append(append([]string{}, la...), ra...))...)
		}
		return &plan.Select{Child: &plan.Product{L: l, R: r}, Cond: conds}
	default: // p ∪ σ(p) or p \ σ(p)
		p := g.node(depth - 1)
		q := &plan.Select{Child: p, Cond: g.conds(p.Attrs())}
		if g.rng.Intn(2) == 0 {
			return &plan.Union{L: p, R: q}
		}
		return &plan.Diff{L: p, R: q}
	}
}

type viewIndexFixture struct {
	db    *instance.Database
	views plan.Materialized
	gen   *viewPlanGen
}

func newViewIndexFixture(t *testing.T, seed int64) *viewIndexFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := schema.New(schema.NewRelation("R", "A", "B", "C"))
	db := instance.NewDatabase(s)
	v := func(k int) string { return fmt.Sprintf("v%d", rng.Intn(k)) }
	for i := 0; i < 40; i++ {
		db.MustInsert("R", v(6), v(6), v(6))
	}
	views := plan.Materialized{}
	seen := map[string]bool{}
	for i := 0; i < 24; i++ {
		row := []string{v(7), v(7)}
		if k := row[0] + "," + row[1]; !seen[k] {
			seen[k] = true
			views["V"] = append(views["V"], row)
		}
	}
	for i := 0; i < 6; i++ {
		views["W"] = append(views["W"], []string{fmt.Sprintf("v%d", i)})
	}
	return &viewIndexFixture{db: db, views: views, gen: &viewPlanGen{
		rng:  rng,
		cA:   access.NewConstraint("R", []string{"A"}, []string{"B"}, 100),
		cAll: access.NewConstraint("R", nil, []string{"A"}, 100),
	}}
}

func (f *viewIndexFixture) index(t *testing.T) *instance.VIndex {
	t.Helper()
	vx, err := instance.BuildVIndex(f.db.Schema, f.db.Dict, f.db.IDTables(), access.NewSchema(f.gen.cA, f.gen.cAll))
	if err != nil {
		t.Fatal(err)
	}
	return vx
}

func canonRows(rows [][]string) string {
	rows = distinct(rows)
	slices.SortFunc(rows, slices.Compare)
	return fmt.Sprint(rows)
}

// TestViewIndexDifferentialRandom runs plans through the indexed executor
// — over one long-lived PreparedViews (its view indices built by the first
// plan that needs them and reused by every later one), and over a fresh
// view set per call — against the naive interpreter: identical rows, fetch
// counts and full profile. The plans are random ones and plans that fetch
// through one constraint from several ops, whose slots must merge into the
// reference's per-constraint sums. A second phase replays every plan from
// concurrent readers of the shared view set, the memo's race check.
func TestViewIndexDifferentialRandom(t *testing.T) {
	f := newViewIndexFixture(t, 1)
	vx := f.index(t)
	pv := plan.PrepareViews(vx.Dict(), f.views)

	type want struct {
		rows string
		obs  profile
	}
	g := f.gen
	plans := []plan.Node{
		&plan.Product{L: fetchChain(g), R: fetchChain(g)},
		&plan.Union{L: fetchChain(g), R: fetchChain(g)},
	}
	for i := 0; i < 400; i++ {
		plans = append(plans, g.node(3))
	}
	var wants []want
	joins, shared := 0, 0
	for i, p := range plans {
		ref := &refRun{vx: vx, views: f.views}
		rows, err := ref.run(p)
		if err != nil {
			t.Fatalf("reference failed on\n%s: %v", plan.Render(p), err)
		}
		ref.obs.Rows = len(distinct(rows))
		w := want{canonRows(rows), ref.obs}
		joins += ref.obs.Joins.In
		for key, n := range ref.fetches {
			if n > 1 && ref.obs.Groups[key].Out > 0 {
				shared++
			}
		}

		for rep := 0; rep < 2; rep++ {
			got, x, err := plan.Exec(p, nil, vx, pv)
			if err != nil {
				t.Fatalf("plan %d rep %d: %v\n%s", i, rep, err, plan.Render(p))
			}
			if g := canonRows(got); g != w.rows {
				t.Fatalf("plan %d rep %d rows:\n got %s\nwant %s\n%s", i, rep, g, w.rows, plan.Render(p))
			}
			if ob := profileOf(x, len(got)); !reflect.DeepEqual(ob, w.obs) {
				t.Fatalf("plan %d rep %d profile:\n got %+v\nwant %+v\n%s", i, rep, ob, w.obs, plan.Render(p))
			}
			if x.Fetched() != ref.fetched {
				t.Fatalf("plan %d: fetched %d, reference %d", i, x.Fetched(), ref.fetched)
			}
			x.Release()
		}
		got, fetched, err := plan.Run(p, vx, plan.PrepareViews(vx.Dict(), f.views))
		if err != nil || canonRows(got) != w.rows || fetched != ref.fetched {
			t.Fatalf("plan %d via Run: err=%v rows %s want %s, fetched %d want %d",
				i, err, canonRows(got), w.rows, fetched, ref.fetched)
		}
		wants = append(wants, w)
	}
	if joins == 0 {
		t.Fatal("generator produced no hash joins")
	}
	if shared < 2 {
		t.Fatalf("only %d plans fetch through one constraint from several ops", shared)
	}

	fresh := plan.PrepareViews(vx.Dict(), f.views)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range plans {
				i := (k + g*len(plans)/4) % len(plans)
				got, x, err := plan.Exec(plans[i], nil, vx, fresh)
				ob := profileOf(x, len(got))
				x.Release()
				if err != nil || canonRows(got) != wants[i].rows || !reflect.DeepEqual(ob, wants[i].obs) {
					t.Errorf("concurrent plan %d: err=%v rows %s want %s profile %+v want %+v",
						i, err, canonRows(got), wants[i].rows, ob, wants[i].obs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestViewIndexBuiltOncePerVersion is the scale-independence pin:
// however many executions of ξ0 follow, from 8 concurrent readers, a view
// version resolves V1 — and so scans it — and builds its join index
// exactly once. A view set derived from it that keeps V1 (the epoch after
// a batch that left V1 unchanged) shares both; one that replaces V1
// resolves and indexes the new version exactly once.
func TestViewIndexBuiltOncePerVersion(t *testing.T) {
	m := workload.NewMovies(20)
	db := m.Generate(workload.MoviesParams{Persons: 300, Movies: 300, LikesPerPerson: 4, NASAShare: 5, Seed: 2})
	views, err := eval.Materialize(m.Views(), db)
	if err != nil {
		t.Fatal(err)
	}
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plan.Run(m.Fig1Plan(), vx, plan.PrepareViews(db.Dict, views))
	if err != nil {
		t.Fatal(err)
	}
	var ids [][]uint32
	for _, r := range views["V1"] {
		ids = append(ids, db.Dict.Encode(r))
	}
	var computes atomic.Int64
	version := func() *plan.ViewVersion {
		return plan.NewViewVersion(1, func() [][]uint32 {
			computes.Add(1)
			return ids
		})
	}
	read := func(pv *plan.PreparedViews, what string) *plan.ViewVersion {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 25; j++ {
					got, _, err := plan.Run(m.Fig1Plan(), vx, pv)
					if err != nil || canonRows(got) != canonRows(want) {
						t.Errorf("%s: err=%v, %d rows want %d", what, err, len(got), len(want))
						return
					}
				}
			}()
		}
		wg.Wait()
		v1, _ := pv.View("V1")
		return v1
	}

	first := plan.NewPreparedViews(db.Dict, map[string]*plan.ViewVersion{"V1": version()})
	v1 := read(first, "first version")
	built := plan.BuiltIndices(v1)
	if n := computes.Load(); n != 1 || len(built) != 1 {
		t.Fatalf("first version: V1 resolved %d times and %d indices built, want 1 and 1", n, len(built))
	}

	kept := read(first.With(nil), "derived set keeping V1")
	if kept != v1 {
		t.Fatal("a derived view set that keeps V1 serves another version of it")
	}
	if n := computes.Load(); n != 1 || !maps.Equal(plan.BuiltIndices(v1), built) {
		t.Fatalf("derived set keeping V1: V1 resolved %d times in all (want 1), indices %v, want %v",
			n, plan.BuiltIndices(v1), built)
	}

	replaced := read(first.With(map[string]*plan.ViewVersion{"V1": version()}), "derived set replacing V1")
	if replaced == v1 {
		t.Fatal("a derived view set that replaces V1 serves the old version")
	}
	rebuilt := plan.BuiltIndices(replaced)
	if n := computes.Load(); n != 2 || len(rebuilt) != 1 || maps.Equal(rebuilt, built) {
		t.Fatalf("derived set replacing V1: V1 resolved %d times in all (want 2), indices %v (old %v)", n, rebuilt, built)
	}
}

// TestViewWidthErrorEveryCall checks that a view whose rows do not match
// the node's width fails every execution — the version's arity is checked
// on every read — on the scan, σ[col = c] and join paths alike.
func TestViewWidthErrorEveryCall(t *testing.T) {
	_, ix, enc := preparedFixture(t)
	pv := idViews(ix, map[string][][]uint32{"V": enc("a", "b")})
	wide := &plan.View{Name: "V", Cols: []string{"x", "y"}}
	for _, p := range []plan.Node{
		wide,
		&plan.Select{Child: wide, Cond: []plan.CondItem{{L: "x", RConst: true, R: "a"}}},
		&plan.Select{
			Child: &plan.Product{L: &plan.Const{Attr: "c", Val: "a"}, R: wide},
			Cond:  []plan.CondItem{{L: "c", R: "x"}},
		},
	} {
		for call := 0; call < 3; call++ {
			_, _, err := plan.Run(p, ix, pv)
			if err == nil || !strings.Contains(err.Error(), "rows have 1 columns, node expects 2") {
				t.Fatalf("call %d of\n%s: err = %v, want the width error", call, plan.Render(p), err)
			}
		}
	}
	// The narrow reading of the same view set still works.
	if rows, _, err := plan.Run(&plan.View{Name: "V", Cols: []string{"x"}}, ix, pv); err != nil || len(rows) != 2 {
		t.Fatalf("narrow read: %v, %d rows", err, len(rows))
	}
}

// BenchmarkViewIndexBuild compares, over a 7.9k-row single-column view
// extent (|V1| of the serve_fig1 Movies instance) joined with 50 fetched
// movies, the one-time cost of building the view's flat index with the
// per-execution cost the executor paid before view indices: hashing the
// 50 fetched rows and probing that table with every view row.
func BenchmarkViewIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	view := make([][]uint32, 7900)
	for i, mid := range rng.Perm(20000)[:len(view)] {
		view[i] = []uint32{uint32(mid)}
	}
	fetched := make([][]uint32, 50)
	for i := range fetched {
		fetched[i] = []uint32{uint32(rng.Intn(20000)), 1, 2}
	}
	b.Run("flat_build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			intern.NewFlatIndex(view, []int{0})
		}
	})
	b.Run("scan_probe", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			idx := intern.NewDynIndex([]int{0})
			for _, r := range fetched {
				idx.Add(r)
			}
			for _, r := range view {
				idx.GetAt(r, []int{0})
			}
		}
	})
	b.Run("indexed_probe", func(b *testing.B) {
		ix := intern.NewFlatIndex(view, []int{0})
		var buf [][]uint32
		b.ReportAllocs()
		for b.Loop() {
			for _, r := range fetched {
				buf = ix.Lookup(r, []int{0}, buf[:0])
			}
		}
	})
}
