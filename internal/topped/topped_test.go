package topped_test

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
	"repro/internal/workload"
)

// Example 5.3 fixture: R1 = {R(A,B), T(C,E)}, A2 = {R(A→B,N), T(C→E,N)},
// V3(x,y) = R(y,y) ∧ T(x,y).
type ex53 struct {
	s     *schema.Schema
	a     *access.Schema
	views map[string]*cq.UCQ
	q3    *fo.Query
	q4    fo.Expr
}

func newEx53() *ex53 {
	s := schema.New(
		schema.NewRelation("R", "A", "B"),
		schema.NewRelation("T", "C", "E"),
	)
	n := 3
	a := access.NewSchema(
		access.NewConstraint("R", []string{"A"}, []string{"B"}, n),
		access.NewConstraint("T", []string{"C"}, []string{"E"}, n),
	)
	v3 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("y")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("y"), cq.Var("y")),
		cq.NewAtom("T", cq.Var("x"), cq.Var("y")),
	})
	v3.Name = "V3"
	views := map[string]*cq.UCQ{"V3": cq.NewUCQ(v3)}

	// q4(z) = ∃y ( (∃x (V3(x,y) ∧ x=1)) ∧ R(y,z) )
	q1 := &fo.And{
		L: fo.NewAtom("V3", cq.Var("x"), cq.Var("y")),
		R: fo.Eq(cq.Var("x"), cq.Cst("1")),
	}
	q2 := &fo.Exists{Vars: []string{"x"}, E: q1}
	qp2 := &fo.And{L: q2, R: fo.NewAtom("R", cq.Var("y"), cq.Var("z"))}
	q4 := &fo.Exists{Vars: []string{"y"}, E: qp2}
	// q3(z) = q4(z) ∧ ¬∃w R(z,w)
	qp4 := &fo.Exists{Vars: []string{"w"}, E: fo.NewAtom("R", cq.Var("z"), cq.Var("w"))}
	q3 := &fo.Query{Name: "q3", Head: []string{"z"}, Body: &fo.And{L: q4, R: &fo.Not{E: qp4}}}
	return &ex53{s: s, a: a, views: views, q3: q3, q4: q4}
}

func TestQ3ToppedBy13(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	res := c.Check(f.q3, 13)
	if !res.Topped {
		t.Fatalf("q3 must be topped by (R1,V3,A2,13) (Example 5.4): %s", res.Reason)
	}
	if res.Size != 13 {
		t.Fatalf("the Figure 3 plan has 13 nodes, generator produced %d:\n%s", res.Size, plan.Render(res.Plan))
	}
	if !plan.InLanguage(res.Plan, plan.LangFO) {
		t.Fatal("q3's plan is an FO plan")
	}
	if plan.InLanguage(res.Plan, plan.LangPosFO) {
		t.Fatal("q3's plan uses set difference and is not an ∃FO+ plan")
	}
	rep := plan.Conforms(res.Plan, f.s, f.a, f.views)
	if !rep.Conforms {
		t.Fatalf("q3's plan must conform to A2: %s", rep.Reason)
	}
}

func TestQ3NotToppedBy12(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	if res := c.Check(f.q3, 12); res.Topped {
		t.Fatal("q3 is not topped by (R1,V3,A2,12): the minimal plan has 13 nodes")
	}
}

func TestQ4ToppedBy5(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	q4 := &fo.Query{Name: "q4", Head: []string{"z"}, Body: f.q4}
	res := c.Check(q4, 5)
	if !res.Topped || res.Size != 5 {
		t.Fatalf("q4 has a 5-bounded plan (Example 5.3), got topped=%v size=%d (%s)", res.Topped, res.Size, res.Reason)
	}
}

// randomEx53Instance builds an instance of R1 satisfying A2.
func randomEx53Instance(f *ex53, seed int64, size int) *instance.Database {
	rng := rand.New(rand.NewSource(seed))
	db := instance.NewDatabase(f.s)
	dom := func(i int) string { return strconv.Itoa(i) }
	fanR := map[string]int{}
	fanT := map[string]int{}
	for i := 0; i < size; i++ {
		a, b := dom(rng.Intn(size/2+2)), dom(rng.Intn(size/2+2))
		if fanR[a] < 3 {
			db.MustInsert("R", a, b)
			fanR[a]++
		}
		c, e := dom(rng.Intn(size/2+2)), dom(rng.Intn(size/2+2))
		if c == "1" || rng.Intn(4) == 0 {
			c = "1" // make sure the x=1 selection has matches
		}
		if fanT[c] < 3 {
			db.MustInsert("T", c, e)
			fanT[c]++
		}
	}
	// Seed a few reflexive R tuples so V3 is non-empty.
	for i := 0; i < 5; i++ {
		v := dom(rng.Intn(size/2 + 2))
		if fanR[v] < 3 {
			db.MustInsert("R", v, v)
			fanR[v]++
		}
	}
	return db
}

func TestQ3PlanMatchesFOEvaluation(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	res := c.Check(f.q3, 13)
	if !res.Topped {
		t.Fatalf("not topped: %s", res.Reason)
	}
	for seed := int64(0); seed < 8; seed++ {
		db := randomEx53Instance(f, seed, 40)
		if ok, _ := db.SatisfiesAll(f.a); !ok {
			t.Fatalf("seed %d: instance violates A2", seed)
		}
		views, err := eval.Materialize(f.views, db)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), f.a)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := plan.Run(res.Plan, ix, plan.PrepareViews(ix.Dict(), views))
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		// Reference: evaluate q3 directly with views expanded.
		ref := &fo.Query{Head: f.q3.Head, Body: fo.ExpandViews(f.q3.Body, f.views)}
		want, err := eval.FOOnDB(ref, &eval.Source{DB: db})
		if err != nil {
			t.Fatalf("seed %d: FO eval: %v", seed, err)
		}
		if !cq.RowsEqual(got, want) {
			slices.SortFunc(got, slices.Compare)
			slices.SortFunc(want, slices.Compare)
			t.Fatalf("seed %d: plan ≠ query: got %v want %v\n%s", seed, got, want, plan.Render(res.Plan))
		}
	}
}

func TestToppedQxiExample23(t *testing.T) {
	// Q_ξ(mid) = ∃ym (movie(mid,ym,"Universal","2014") ∧ V1(mid) ∧
	// rating(mid,"5")) — the rewriting of Example 2.3 — is topped by
	// (R0, V1, A0, 11) and the generator reproduces an 11-node plan
	// equivalent to Figure 1's ξ0.
	m := workload.NewMovies(25)
	c := topped.NewChecker(m.Schema, m.Access, m.Views())
	body := &fo.Exists{Vars: []string{"ym"}, E: &fo.And{
		L: &fo.And{
			L: fo.NewAtom("movie", cq.Var("mid"), cq.Var("ym"), cq.Cst("Universal"), cq.Cst("2014")),
			R: fo.NewAtom("V1", cq.Var("mid")),
		},
		R: fo.NewAtom("rating", cq.Var("mid"), cq.Cst("5")),
	}}
	qxi := &fo.Query{Name: "Qxi", Head: []string{"mid"}, Body: body}
	res := c.Check(qxi, 11)
	if !res.Topped {
		t.Fatalf("Q_ξ must be topped by (R0,V1,A0,11): %s", res.Reason)
	}
	if res.Size != 11 {
		t.Fatalf("expected the 11-node Figure 1 plan, got %d:\n%s", res.Size, plan.Render(res.Plan))
	}
	rep := plan.Conforms(res.Plan, m.Schema, m.Access, m.Views())
	if !rep.Conforms {
		t.Fatalf("generated plan must conform to A0: %s", rep.Reason)
	}
	if rep.FetchBound != int64(2*m.N0) {
		t.Fatalf("fetch bound %d, want 2·N0 = %d", rep.FetchBound, 2*m.N0)
	}
	// The generated plan computes Q0 on A0-instances.
	db := m.Generate(workload.MoviesParams{Persons: 300, Movies: 300, LikesPerPerson: 5, NASAShare: 8, Seed: 5})
	views, err := eval.Materialize(m.Views(), db)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
	if err != nil {
		t.Fatal(err)
	}
	got, fetched, err := plan.Run(res.Plan, ix, plan.PrepareViews(ix.Dict(), views))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, want) {
		t.Fatalf("generated plan disagrees with Q0: %d vs %d rows", len(got), len(want))
	}
	if fetched > 2*m.N0 {
		t.Fatalf("fetched %d > 2·N0", fetched)
	}
}

func TestNotToppedWithoutConstraints(t *testing.T) {
	// Without any access constraint, a base-relation atom cannot be
	// fetched: the query is not topped.
	s := schema.New(schema.NewRelation("R", "A", "B"))
	c := topped.NewChecker(s, access.NewSchema(), nil)
	q := &fo.Query{Head: []string{"x"}, Body: &fo.Exists{Vars: []string{"y"}, E: fo.NewAtom("R", cq.Var("x"), cq.Var("y"))}}
	if res := c.Check(q, 100); res.Topped {
		t.Fatal("no constraints, no views: nothing can be fetched")
	}
}

func TestUnsafeDisjunctionRejected(t *testing.T) {
	// Q(x,y) = ∃w1 R(w1,x) ∨ ∃w2 R(w2,y) is unsafe (Section 5.2 case 5).
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", nil, []string{"A", "B"}, 10))
	c := topped.NewChecker(s, a, nil)
	q := &fo.Query{Head: []string{"x", "y"}, Body: &fo.Or{
		L: &fo.Exists{Vars: []string{"w1"}, E: fo.NewAtom("R", cq.Var("w1"), cq.Var("x"))},
		R: &fo.Exists{Vars: []string{"w2"}, E: fo.NewAtom("R", cq.Var("w2"), cq.Var("y"))},
	}}
	if res := c.Check(q, 100); res.Topped {
		t.Fatal("unsafe disjunction must be rejected (domain independence)")
	}
}

func TestDisjunctionTopped(t *testing.T) {
	// Q(x) = R("a",x) ∨ R("b",x) under R(A→B,N): a UCQ-style topped query.
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 4))
	c := topped.NewChecker(s, a, nil)
	q := &fo.Query{Head: []string{"x"}, Body: &fo.Or{
		L: fo.NewAtom("R", cq.Cst("a"), cq.Var("x")),
		R: fo.NewAtom("R", cq.Cst("b"), cq.Var("x")),
	}}
	res := c.Check(q, 20)
	if !res.Topped {
		t.Fatalf("disjunction of fetchable atoms must be topped: %s", res.Reason)
	}
	// Execute and compare against UCQ evaluation.
	db := instance.NewDatabase(s)
	db.MustInsert("R", "a", "1")
	db.MustInsert("R", "a", "2")
	db.MustInsert("R", "b", "3")
	db.MustInsert("R", "c", "4")
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"1"}, {"2"}, {"3"}}
	if !cq.RowsEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSizeBoundedRoundTrip(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema()
	_ = a
	inner := &fo.Query{Name: "V", Head: []string{"x", "y"},
		Body: fo.Expr(fo.NewAtom("R", cq.Var("x"), cq.Var("y")))}
	for _, k := range []int64{1, 2, 5} {
		sb := topped.MakeSizeBounded(inner, k)
		gotK, gotInner, ok := topped.IsSizeBounded(sb)
		if !ok {
			t.Fatalf("K=%d: size-bounded form not recognized: %s", k, sb)
		}
		if gotK != k {
			t.Fatalf("K=%d: recognized bound %d", k, gotK)
		}
		if !cqBodiesEqual(gotInner.Body, inner.Body) {
			t.Fatalf("K=%d: inner query mismatch", k)
		}
	}
	// A plain query is not size-bounded syntactically.
	if _, _, ok := topped.IsSizeBounded(inner); ok {
		t.Fatal("plain query must not be recognized as size-bounded")
	}
	_ = s
}

func cqBodiesEqual(a, b fo.Expr) bool { return a.String() == b.String() }

func TestSizeBoundedSemantics(t *testing.T) {
	// The size-bounded wrapper returns Q' when |Q'(D)| ≤ K and ∅ otherwise
	// (Theorem 5.2(b)).
	s := schema.New(schema.NewRelation("R", "A"))
	inner := &fo.Query{Head: []string{"x"}, Body: fo.Expr(fo.NewAtom("R", cq.Var("x")))}
	sb := topped.MakeSizeBounded(inner, 2)

	small := instance.NewDatabase(s)
	small.MustInsert("R", "1")
	small.MustInsert("R", "2")
	got, err := eval.FOOnDB(sb, &eval.Source{DB: small})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("output within bound must pass through, got %v", got)
	}

	big := instance.NewDatabase(s)
	for i := 0; i < 5; i++ {
		big.MustInsert("R", strconv.Itoa(i))
	}
	got, err = eval.FOOnDB(sb, &eval.Source{DB: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("output beyond bound must collapse to empty, got %v", got)
	}
}

func TestBoundedOutputOracleOnViews(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	// q2(y) = ∃x (V3(x,y) ∧ x=1) has bounded output (|q2(D)| ≤ N).
	q2 := &fo.Query{Head: []string{"y"}, Body: &fo.Exists{Vars: []string{"x"}, E: &fo.And{
		L: fo.NewAtom("V3", cq.Var("x"), cq.Var("y")),
		R: fo.Eq(cq.Var("x"), cq.Cst("1")),
	}}}
	ok, bound := c.BoundedOutputFO(q2)
	if !ok {
		t.Fatal("q2 must have bounded output (Example 5.4(d))")
	}
	if bound <= 0 || bound > 3 {
		t.Fatalf("bound should be ≤ N=3, got %d", bound)
	}
	// V3 itself (both columns) is unbounded.
	v3q := &fo.Query{Head: []string{"x", "y"}, Body: fo.Expr(fo.NewAtom("V3", cq.Var("x"), cq.Var("y")))}
	if ok, _ := c.BoundedOutputFO(v3q); ok {
		t.Fatal("V3 has unbounded output under A2")
	}
}
