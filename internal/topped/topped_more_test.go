package topped_test

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
)

// Case (4b): two independently-bounded conjuncts joined (the paper's
// λ = 4 join arithmetic).
func TestConjunctionJoinCase(t *testing.T) {
	s := schema.New(
		schema.NewRelation("S", "C"),
		schema.NewRelation("R", "A", "B"),
	)
	a := access.NewSchema(
		access.NewConstraint("S", nil, []string{"C"}, 4),
		access.NewConstraint("R", []string{"A"}, []string{"B"}, 3),
	)
	c := topped.NewChecker(s, a, nil)
	// Q(x, y, z) = S(x) ∧ R(x, y) ∧ R(x, z): a shared-variable join.
	q := &fo.Query{Head: []string{"x", "y", "z"}, Body: &fo.And{
		L: &fo.And{
			L: fo.NewAtom("S", cq.Var("x")),
			R: fo.NewAtom("R", cq.Var("x"), cq.Var("y")),
		},
		R: fo.NewAtom("R", cq.Var("x"), cq.Var("z")),
	}}
	res := c.Check(q, 32)
	if !res.Topped {
		t.Fatalf("join of bounded conjuncts must be topped: %s", res.Reason)
	}
	// Execute against direct evaluation.
	db := instance.NewDatabase(s)
	db.MustInsert("S", "a")
	db.MustInsert("S", "b")
	db.MustInsert("R", "a", "1")
	db.MustInsert("R", "a", "2")
	db.MustInsert("R", "b", "3")
	db.MustInsert("R", "zz", "9") // not in S
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.FOOnDB(q, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, want) {
		t.Fatalf("plan %v, want %v\n%s", got, want, plan.Render(res.Plan))
	}
}

// The K-limit bounds context expansion (cases 4c/6b); with K = 0 the
// expansion is forbidden, which loses some queries — exactly the paper's
// trade-off (any fixed K keeps PTIME; larger K covers more syntax).
func TestKLimit(t *testing.T) {
	f := newEx53()
	c := topped.NewChecker(f.s, f.a, f.views)
	c.K = 1 // too small for the q4-shaped negated subquery
	if res := c.Check(f.q3, 13); res.Topped {
		t.Fatal("with K=1 the q3 derivation must fail (negated subquery too large)")
	}
	c2 := topped.NewChecker(f.s, f.a, f.views)
	if res := c2.Check(f.q3, 13); !res.Topped {
		t.Fatalf("with the default K the derivation succeeds: %s", res.Reason)
	}
}

// Repeated variables and constants in a fetched atom become selections.
func TestAtomWithRepeatsAndConstants(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B", "C"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B", "C"}, 5))
	c := topped.NewChecker(s, a, nil)
	// Q(y) = R("k", y, y): B = C filter on fetched tuples.
	q := &fo.Query{Head: []string{"y"}, Body: fo.Expr(
		fo.NewAtom("R", cq.Cst("k"), cq.Var("y"), cq.Var("y")))}
	res := c.Check(q, 16)
	if !res.Topped {
		t.Fatalf("must be topped: %s", res.Reason)
	}
	db := instance.NewDatabase(s)
	db.MustInsert("R", "k", "1", "1")
	db.MustInsert("R", "k", "1", "2")
	db.MustInsert("R", "k", "3", "3")
	db.MustInsert("R", "other", "4", "4")
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"1"}, {"3"}}) {
		t.Fatalf("got %v\n%s", got, plan.Render(res.Plan))
	}
}

// A fetched Y-variable already bound by the context must be equated with
// the context binding (the join-back case).
func TestContextOverlapJoinBack(t *testing.T) {
	s := schema.New(
		schema.NewRelation("S", "C"),
		schema.NewRelation("R", "A", "B"),
	)
	a := access.NewSchema(
		access.NewConstraint("S", nil, []string{"C"}, 4),
		access.NewConstraint("R", []string{"A"}, []string{"B"}, 3),
	)
	c := topped.NewChecker(s, a, nil)
	// Q(y) = S(y) ∧ R("k", y): y is produced by S and must agree with the
	// fetched B values.
	q := &fo.Query{Head: []string{"y"}, Body: &fo.And{
		L: fo.NewAtom("S", cq.Var("y")),
		R: fo.NewAtom("R", cq.Cst("k"), cq.Var("y")),
	}}
	res := c.Check(q, 32)
	if !res.Topped {
		t.Fatalf("must be topped: %s", res.Reason)
	}
	db := instance.NewDatabase(s)
	db.MustInsert("S", "1")
	db.MustInsert("S", "2")
	db.MustInsert("R", "k", "2")
	db.MustInsert("R", "k", "3") // 3 ∉ S
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"2"}}) {
		t.Fatalf("got %v (expected only the S∩fetch value)\n%s", got, plan.Render(res.Plan))
	}
}

// Queries over views with constants in the view call.
func TestViewCallWithConstant(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema()
	v := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("y")},
		[]cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})
	views := map[string]*cq.UCQ{"V": cq.NewUCQ(v)}
	c := topped.NewChecker(s, a, views)
	// Q(y) = V("k", y): a constant selection over the cached view; no
	// fetch at all, so no constraints are needed.
	q := &fo.Query{Head: []string{"y"}, Body: fo.Expr(fo.NewAtom("V", cq.Cst("k"), cq.Var("y")))}
	res := c.Check(q, 8)
	if !res.Topped {
		t.Fatalf("view-only query must be topped: %s", res.Reason)
	}
	db := instance.NewDatabase(s)
	db.MustInsert("R", "k", "1")
	db.MustInsert("R", "z", "2")
	views2, err := eval.Materialize(views, db)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, fetched, err := plan.Run(res.Plan, ix, plan.PrepareViews(ix.Dict(), views2))
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"1"}}) {
		t.Fatalf("got %v\n%s", got, plan.Render(res.Plan))
	}
	if fetched != 0 {
		t.Fatal("view-only plans fetch nothing from D")
	}
}
