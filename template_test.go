package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/vbrp"
	"repro/internal/workload"
)

// templateFixture is one system of the template differential: a handle
// over a small instance, a mirror database for EvalDirect, the relations
// random queries range over and the constants bindings draw from.
type templateFixture struct {
	name   string
	sys    *System
	mirror *Database
	h      Handle
	rels   map[string]int // relation -> arity
	pool   []string       // binding values; viewConst among them if any
	view   string         // a constant of the views ("" when none)
	shapes []templateShape
}

// templateShape builds a query from a binding of its slots.
type templateShape struct {
	build func(vals []string) *UCQ
	slots int
}

func templateFixtures(t *testing.T) []*templateFixture {
	t.Helper()
	var out []*templateFixture
	add := func(name string, sys *System, err error, db *Database, opts []OpenOption, rels map[string]int, pool []string, view string) {
		if err != nil {
			t.Fatal(err)
		}
		h, err := sys.Open(db.Clone(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		out = append(out, &templateFixture{name: name, sys: sys, mirror: db, h: h, rels: rels, pool: pool, view: view})
	}

	// M = 3 instead of the fixture's 4 keeps the searches small; the
	// point query's rewriting π(fetch(const)) has size 3.
	sh := workload.NewSharded(4)
	sys, err := NewSystem(sh.Schema, sh.Access, sh.Views(), 3)
	add("sharded", sys, err, sh.Generate(24, 3, 5), []OpenOption{WithShards(4)},
		map[string]int{"acct": 2, "txn": 3}, []string{"u0", "u1", "u2", "u7", "emea", "r1", "it3", "zz"}, "emea")
	// VSpend with its region as a slot: bound to "emea" the query is the
	// view itself and has a bounded rewriting; bound to anything else it
	// has none, as u is free and unbounded.
	out[0].shapes = []templateShape{{slots: 1, build: func(vals []string) *UCQ {
		return NewUCQ(NewCQ([]Term{Var("u"), Var("i")}, []Atom{
			NewAtom("acct", Var("u"), Cst(vals[0])),
			NewAtom("txn", Var("u"), Var("i"), Var("a")),
		}))
	}}}

	pp := workload.NewPlanPick(5, 100_000)
	sys, err = NewSystem(pp.Schema, pp.Access, pp.Views(), pp.M)
	add("planpick", sys, err, pp.Generate(300, 4, 3), nil,
		map[string]int{"R": 2}, []string{"k", "a0", "a3", "kb1", "zz"}, "")

	fb := workload.NewPlanFeedback()
	fb.HotGroup, fb.Singletons, fb.BValues = 40, 60, 4
	sys, err = NewSystem(fb.Schema, fb.Access, fb.Views(), fb.M)
	add("planfeedback", sys, err, fb.Generate(), nil,
		map[string]int{"R": 3}, []string{"k", "j", "s1", "b0", "ans0", "zz"}, "")
	return out
}

// randomTemplateQuery draws a one-atom CQ whose constant positions are
// numbered slots: the first argument (the fetch key of every fixture's
// constraints) is a slot more often than not, so many shapes have bounded
// rewritings. Half the shapes also get an equality between slot 0 and a
// slot of its own, which a binding of two distinct constants makes
// unsatisfiable. It returns a function building the query for a binding
// of the slots, and the number of slots.
func randomTemplateQuery(rng *rand.Rand, fx *templateFixture) (func(vals []string) *UCQ, int) {
	names := make([]string, 0, len(fx.rels))
	for r := range fx.rels {
		names = append(names, r)
	}
	sort.Strings(names)
	rel := names[rng.Intn(len(names))]
	slots := 0
	type arg struct {
		slot int // -1: variable v
		v    string
	}
	args := make([]arg, fx.rels[rel])
	for i := range args {
		p := 0.25
		if i == 0 {
			p = 0.7
		}
		if rng.Float64() < p {
			args[i] = arg{slot: slots}
			slots++
		} else {
			args[i] = arg{slot: -1, v: fmt.Sprintf("x%d", rng.Intn(2))}
		}
	}
	eqR := -1
	if rng.Intn(2) == 0 {
		if slots == 0 {
			slots++ // slot 0 occurs only in the equality
		}
		eqR = slots
		slots++
	}
	return func(vals []string) *UCQ {
		terms := make([]Term, len(args))
		var head []Term
		seen := map[string]bool{}
		for i, a := range args {
			if a.slot >= 0 {
				terms[i] = Cst(vals[a.slot])
				continue
			}
			terms[i] = Var(a.v)
			if !seen[a.v] {
				seen[a.v] = true
				head = append(head, Var(a.v))
			}
		}
		q := NewCQ(head, []Atom{NewAtom(rel, terms...)})
		if eqR >= 0 {
			q.Eqs = []cq.Equality{{L: Cst(vals[0]), R: Cst(vals[eqR])}}
		}
		return NewUCQ(q)
	}, slots
}

// templateBindings returns the bindings tried for a shape with n slots:
// all-distinct values, every slot merged into one value, a view constant
// in slot 0 (when the fixture has one), and random draws that may repeat
// values.
func templateBindings(rng *rand.Rand, fx *templateFixture, n int) [][]string {
	if n == 0 {
		return [][]string{nil}
	}
	perm := rng.Perm(len(fx.pool))
	distinct := make([]string, n)
	merged := make([]string, n)
	for i := range distinct {
		distinct[i] = fx.pool[perm[i%len(perm)]]
		merged[i] = fx.pool[perm[0]]
	}
	out := [][]string{distinct, merged}
	if fx.view != "" {
		v := append([]string(nil), distinct...)
		v[0] = fx.view
		out = append(out, v)
	}
	for k := 0; k < 2; k++ {
		r := make([]string, n)
		for i := range r {
			r[i] = fx.pool[rng.Intn(len(fx.pool))]
		}
		out = append(out, r)
	}
	seen := map[string]bool{}
	w := 0
	for _, b := range out {
		if k := fmt.Sprintf("%q", b); !seen[k] {
			seen[k] = true
			out[w] = b
			w++
		}
	}
	return out[:w]
}

func renderCands(cands []vbrp.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = plan.Render(c.Plan)
	}
	sort.Strings(out)
	return out
}

// TestPrepareTemplateDifferentialRandom: Prepare searches once per query
// shape and binds each query's constants into the template's plans. For
// random one-atom queries, and VSpend's join with a slot for its region,
// over the Sharded (at P = 4), PlanPick and
// PlanFeedback fixtures, under random bindings — including ones that bind
// the view constant "emea", merge two parameters into one constant, or
// make an equality between two constants unsatisfiable — every
// instantiated candidate must answer like EvalDirect, conform with its
// template's fetch bound and fetch within it. When the concrete query's
// own, uncached search is complete (not truncated by the shape cap and
// below the candidate cap), the instantiated frontier must render exactly
// like it: a bijective renaming of constants neither adds nor drops a
// shape, so the template's search is then complete too. Plans are CQ
// plans, which have no unions whose operand order could depend on the
// constants' spelling.
func TestPrepareTemplateDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var prepares, compared, merges, views, unsat, positives int
	for _, fx := range templateFixtures(t) {
		direct := map[string][][]string{} // concrete key -> EvalDirect
		type search struct {
			cands []vbrp.Candidate
			err   error
		}
		searched := map[string]search{} // concrete key -> its own search
		before := prepares
		shapes := fx.shapes
		for len(shapes) < 4+len(fx.shapes) {
			build, slots := randomTemplateQuery(rng, fx)
			shapes = append(shapes, templateShape{build, slots})
		}
		for _, shape := range shapes {
			for _, vals := range templateBindings(rng, fx, shape.slots) {
				q := shape.build(vals)
				desc := fmt.Sprintf("%s: %s", fx.name, q.Disjuncts[0])
				seen := map[string]bool{}
				for _, v := range vals {
					if seen[v] {
						merges++
					}
					seen[v] = true
					if v == fx.view {
						views++
					}
				}
				if eq := q.Disjuncts[0].Eqs; len(eq) > 0 && eq[0].L != eq[0].R {
					unsat++
				}
				prepares++
				pq, err := fx.sys.Prepare(q, LangCQ)
				if err != nil && err != ErrNoBoundedRewriting && err != vbrp.ErrSearchTruncated {
					t.Fatalf("%s: %v", desc, err)
				}
				key := plan.QueryKey(q)
				own, ok := searched[key]
				if !ok {
					own.cands, own.err = fx.sys.searchCandidates(q, LangCQ)
					searched[key] = own
				}
				fresh := own.cands
				complete := own.err == nil && len(fresh) < vbrp.DefaultMaxCandidates
				if err != nil {
					if complete && len(fresh) > 0 {
						t.Fatalf("%s: template says %v, the query's own search found %d candidates", desc, err, len(fresh))
					}
					continue
				}
				positives++
				want, ok := direct[key]
				if !ok {
					if want, err = fx.sys.EvalDirect(q, fx.mirror); err != nil {
						t.Fatal(err)
					}
					direct[key] = want
				}
				for i, c := range pq.cands {
					rows, fetched, err := fx.h.Execute(c.Plan)
					if err != nil {
						t.Fatalf("%s: candidate %d: %v\n%s", desc, i, err, plan.Render(c.Plan))
					}
					if !cq.RowsEqual(rows, want) {
						t.Fatalf("%s: candidate %d answers %v, EvalDirect %v\n%s", desc, i, rows, want, plan.Render(c.Plan))
					}
					ok, bound, why := fx.sys.Conforms(c.Plan)
					if !ok || bound != c.FetchBound {
						t.Fatalf("%s: candidate %d conforms=%v bound %d (%s), template bound %d", desc, i, ok, bound, why, c.FetchBound)
					}
					if int64(fetched) > c.FetchBound {
						t.Fatalf("%s: candidate %d fetched %d > bound %d", desc, i, fetched, c.FetchBound)
					}
				}
				if complete {
					got, exp := renderCands(pq.cands), renderCands(fresh)
					if fmt.Sprint(got) != fmt.Sprint(exp) {
						t.Fatalf("%s: instantiated frontier differs from the query's own search:\n%q\n%q", desc, got, exp)
					}
					compared++
				}
			}
		}
		if s, _, _ := fx.sys.PrepareCacheStats(); s >= int64(prepares-before) {
			t.Fatalf("%s: %d searches for %d Prepare calls: no template was shared", fx.name, s, prepares-before)
		}
	}
	t.Logf("%d prepares, %d with candidates, %d frontiers compared; bindings: %d merged, %d view constant, %d unsatisfiable",
		prepares, positives, compared, merges, views, unsat)
	if compared == 0 || merges == 0 || views == 0 || unsat == 0 {
		t.Fatalf("coverage: %d frontiers compared, %d merged, %d view-constant, %d unsatisfiable bindings",
			compared, merges, views, unsat)
	}
}

// TestPrepareSelectionPerBinding: two bindings of one template — the
// PlanFeedback hot key ("k", "j") and a cold one ("j0", "j") — share one
// search but not their selection. Probing A = "k" fetches the 3000-row hot
// group that the estimates price at ~1.5 tuples, so the hot binding must
// switch plans; probing A = "j0" really fetches one tuple, so the cold
// binding must keep the estimated pick, with its own execution count. A
// renamed re-Prepare of either returns the same handle.
func TestPrepareSelectionPerBinding(t *testing.T) {
	sys, fx := feedbackSystem(t)
	db := fx.Generate()
	query := func(a, v string) *UCQ {
		return NewUCQ(NewCQ([]Term{Var(v)}, []Atom{NewAtom("R", Cst(a), Cst("j"), Var(v))}))
	}
	wantHot, err := sys.EvalDirect(query("k", "c"), db)
	if err != nil {
		t.Fatal(err)
	}
	wantCold, err := sys.EvalDirect(query("j0", "c"), db)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	hot, err := sys.Prepare(query("k", "c"), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sys.Prepare(query("j0", "c"), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	if s, _, _ := sys.PrepareCacheStats(); s != 1 {
		t.Fatalf("two bindings of one template ran %d searches, want 1", s)
	}
	if hot == cold {
		t.Fatal("two bindings share one PreparedQuery (and so one selection state)")
	}

	const hotRuns, coldRuns = 8, 5
	for i := 0; i < hotRuns; i++ {
		rows, _, err := hot.Execute(h)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, wantHot) {
			t.Fatalf("hot execution %d: %v, want %v", i, rows, wantHot)
		}
	}
	for i := 0; i < coldRuns; i++ {
		rows, fetched, err := cold.Execute(h)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, wantCold) {
			t.Fatalf("cold execution %d: %v, want %v", i, rows, wantCold)
		}
		if fetched > 1 {
			t.Fatalf("cold execution %d fetched %d tuples; its A-group holds one", i, fetched)
		}
	}
	hs, _ := hot.SelectionStats(h)
	cs, ok := cold.SelectionStats(h)
	if !ok {
		t.Fatal("no selection state for the cold binding")
	}
	if hs.Switches < 1 || hs.Executions != hotRuns {
		t.Fatalf("hot binding: %+v; want a switch over %d executions", hs, hotRuns)
	}
	st, _ := h.Stats()
	estimated, _ := cold.best(st, nil)
	if cs.Switches != 0 || cs.Executions != coldRuns || cs.Selected != estimated || hs.Selected == estimated {
		t.Fatalf("cold binding: %+v (hot %+v, estimated pick %d); want its own %d executions on the estimated pick",
			cs, hs, estimated, coldRuns)
	}

	for _, c := range []struct {
		a  string
		pq *PreparedQuery
	}{{"k", hot}, {"j0", cold}} {
		again, err := sys.Prepare(query(c.a, "renamed"), LangCQ)
		if err != nil {
			t.Fatal(err)
		}
		if again != c.pq {
			t.Fatalf("renamed re-Prepare of %q returned another handle", c.a)
		}
	}
	if s, _, _ := sys.PrepareCacheStats(); s != 1 {
		t.Fatalf("%d searches after the renamed re-Prepares, want 1", s)
	}
}

// TestPrepareTemplateConcurrentBindings: goroutines preparing different
// and equal bindings of one template at once share one search, get one
// PreparedQuery per binding, and each answers like EvalDirect.
func TestPrepareTemplateConcurrentBindings(t *testing.T) {
	sys, pp := planPickSystem(t)
	db := pp.Generate(400, 4, 9)
	h, err := sys.Open(db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	query := func(i int) *UCQ {
		return NewUCQ(NewCQ([]Term{Var("b")}, []Atom{NewAtom("R", Cst(fmt.Sprintf("a%d", i)), Var("b"))}))
	}
	const workers, keys = 6, 8
	got := make([][]*PreparedQuery, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*PreparedQuery, keys)
			for k := 0; k < keys; k++ {
				i := (k + w) % keys
				pq, err := sys.Prepare(query(i), LangCQ)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := pq.Execute(h); err != nil {
					t.Error(err)
					return
				}
				got[w][i] = pq
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s, _, _ := sys.PrepareCacheStats(); s != 1 {
		t.Fatalf("%d searches for one template", s)
	}
	for i := 0; i < keys; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("binding a%d: two PreparedQuerys", i)
			}
		}
		want, err := sys.EvalDirect(query(i), db)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := got[0][i].Execute(h)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, want) {
			t.Fatalf("binding a%d: %v, want %v", i, rows, want)
		}
	}
}
