package vbrp

import (
	"testing"

	"repro/internal/access"
	"repro/internal/boundedness"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
)

// A minimal fixture where a rewriting exists: R(A,B) with R(A->B,2), view
// V(x) = R("a",x), query Q(x) = R("a",x) — the plan is just the view.
func TestDecideFindsViewPlan(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	vdef := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("a"), cq.Var("x"))})
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("a"), cq.Var("x"))})
	prob := &Problem{
		S: s, A: a, Views: map[string]*cq.UCQ{"V": cq.NewUCQ(vdef)},
		M: 1, Lang: plan.LangCQ, Consts: q.Constants(),
	}
	dec, err := Decide(cq.NewUCQ(q), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Has {
		t.Fatal("Q must have a 1-bounded rewriting (the view itself)")
	}
	if _, ok := dec.Plan.(*plan.View); !ok {
		t.Fatalf("expected a view plan, got\n%s", plan.Render(dec.Plan))
	}
}

func TestDecideFindsFetchPlan(t *testing.T) {
	// Without views: Q(x) = R("a",x) needs const + fetch = 2 nodes.
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("a"), cq.Var("x"))})
	prob := &Problem{S: s, A: a, M: 3, Lang: plan.LangCQ, Consts: q.Constants()}
	dec, err := Decide(cq.NewUCQ(q), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Has {
		t.Fatal("Q must have a 3-bounded rewriting via const + fetch + projection")
	}
	// With M = 1 there is no plan (a fetch needs its input constant).
	prob1 := &Problem{S: s, A: a, M: 1, Lang: plan.LangCQ, Consts: q.Constants()}
	dec1, err := Decide(cq.NewUCQ(q), prob1)
	if err != nil {
		t.Fatal(err)
	}
	if dec1.Has {
		t.Fatalf("no 1-bounded plan should exist, found\n%s", plan.Render(dec1.Plan))
	}
}

func TestDecideRespectsLanguage(t *testing.T) {
	// Q(x) = R("a",x) ∪ R("b",x) needs a union: no CQ plan, but a UCQ one.
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	d1 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("a"), cq.Var("x"))})
	d2 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("b"), cq.Var("x"))})
	q := cq.NewUCQ(d1, d2)
	consts := append(d1.Constants(), d2.Constants()...)

	cqProb := &Problem{S: s, A: a, M: 7, Lang: plan.LangCQ, Consts: consts, MaxArity: 2, MaxSelectConds: 2}
	decCQ, err := Decide(q, cqProb)
	if err != nil {
		t.Fatal(err)
	}
	if decCQ.Has {
		t.Fatalf("a union query over disjoint constants has no CQ plan, found\n%s", plan.Render(decCQ.Plan))
	}
	ucqProb := &Problem{S: s, A: a, M: 7, Lang: plan.LangUCQ, Consts: consts, MaxArity: 2, MaxSelectConds: 2}
	decUCQ, err := Decide(q, ucqProb)
	if err != nil {
		t.Fatal(err)
	}
	if !decUCQ.Has {
		t.Fatal("a 7-bounded UCQ plan exists (two fetch branches + union)")
	}
	if !plan.InLanguage(decUCQ.Plan, plan.LangUCQ) {
		t.Fatal("witness must be a UCQ plan")
	}
}

func TestDecideRejectsUnboundedQuery(t *testing.T) {
	// Q(x,y) = R(x,y) has no bounded rewriting: nothing bounds x.
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	q := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("y")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})
	prob := &Problem{S: s, A: a, M: 4, Lang: plan.LangCQ, Consts: nil}
	dec, err := Decide(cq.NewUCQ(q), prob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Has {
		t.Fatalf("the full scan has no bounded rewriting, found\n%s", plan.Render(dec.Plan))
	}
}

func TestMaximumPlanAlgACQ(t *testing.T) {
	// AlgACQ on the fetchable query: finds the plan via the maximum-plan
	// characterization (Lemma 3.12 / Theorem 4.2).
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Cst("a"), cq.Var("x"))})
	if !cq.IsAcyclic(q) {
		t.Fatal("fixture must be acyclic")
	}
	prob := &Problem{S: s, A: a, M: 3, Lang: plan.LangCQ, Consts: q.Constants()}
	dec, err := DecideACQ(q, prob)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Has {
		t.Fatal("AlgACQ must find the rewriting")
	}
	// And it must agree with the generic decider on the negative case.
	qneg := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("y")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})
	probNeg := &Problem{S: s, A: a, M: 3, Lang: plan.LangCQ}
	decNeg, err := DecideACQ(qneg, probNeg)
	if err != nil {
		t.Fatal(err)
	}
	if decNeg.Has {
		t.Fatal("AlgACQ must reject the unbounded query")
	}
}

// ---- Example 6.3 ----

func TestEx63SemanticRelations(t *testing.T) {
	e := NewEx63()
	// V2 ≡_A V1 ∧ Q and V3 ≡_A V1 ∪ Q (the paper's key facts).
	v1 := e.Views["V1"].Disjuncts[0]
	v2 := e.Views["V2"].Disjuncts[0]
	v3 := e.Views["V3"].Disjuncts[0]
	conj := v1.Clone()
	conj.Atoms = append(conj.Atoms, renameApart(e.Q, "#q").Atoms...)
	if !boundedness.AEquivalentUCQ(cq.NewUCQ(v2), cq.NewUCQ(conj), e.S, e.A) {
		t.Fatal("V2 ≡_A V1 ∧ Q must hold")
	}
	union := cq.NewUCQ(v1, e.Q)
	if !boundedness.AEquivalentUCQ(cq.NewUCQ(v3), union, e.S, e.A) {
		t.Fatal("V3 ≡_A V1 ∪ Q must hold")
	}
	// Q and V1 are A-incomparable.
	if boundedness.AContainedUCQ(cq.NewUCQ(e.Q), cq.NewUCQ(v1), e.S, e.A) {
		t.Fatal("Q ⋢_A V1")
	}
	if boundedness.AContainedUCQ(cq.NewUCQ(v1), cq.NewUCQ(e.Q), e.S, e.A) {
		t.Fatal("V1 ⋢_A Q")
	}
}

func renameApart(q *cq.CQ, suffix string) *cq.CQ {
	sub := map[string]cq.Term{}
	for _, v := range q.Vars() {
		sub[v] = cq.Var(v + suffix)
	}
	return cq.SubstituteCQ(q, sub)
}

func TestEx63FOPlanIsCorrect(t *testing.T) {
	e := NewEx63()
	p := e.FOPlan()
	if p.Size() != e.M {
		t.Fatalf("the FO plan has %d nodes, want %d", p.Size(), e.M)
	}
	if err := plan.Validate(p, e.S); err != nil {
		t.Fatal(err)
	}
	if !plan.InLanguage(p, plan.LangFO) || plan.InLanguage(p, plan.LangUCQ) {
		t.Fatal("the plan is FO but not UCQ")
	}
	rep := plan.Conforms(p, e.S, e.A, e.Views)
	if !rep.Conforms {
		t.Fatalf("the FO plan must conform (it fetches nothing): %s", rep.Reason)
	}
	// Verify Q(D) = plan(D) on the canonical instances of the paper's
	// argument: the frozen tableaux of Q and of V1.
	for name, src := range map[string]*cq.CQ{"T_Q": e.Q, "T_V1": e.Views["V1"].Disjuncts[0]} {
		tab, ok := cq.Freeze(src)
		if !ok {
			t.Fatalf("%s: freeze failed", name)
		}
		db := instance.NewDatabase(e.S)
		for rel, rows := range tab.Rows {
			for _, row := range rows {
				db.MustInsert(rel, row...)
			}
		}
		if ok, _ := db.SatisfiesAll(e.A); !ok {
			t.Fatalf("%s must satisfy A (paper's argument)", name)
		}
		views, err := eval.Materialize(e.Views, db)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), e.A)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := plan.Run(p, ix, plan.PrepareViews(ix.Dict(), views))
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.CQOnDB(e.Q, &eval.Source{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if (len(got) > 0) != (len(want) > 0) {
			t.Fatalf("%s: plan says %v, Q says %v", name, len(got) > 0, len(want) > 0)
		}
	}
}

func TestEx63NoUCQPlan(t *testing.T) {
	e := NewEx63()
	prob := &Problem{
		S: e.S, A: e.A, Views: e.Views, M: e.M,
		Lang:   plan.LangUCQ,
		Consts: e.Q.Constants(),
	}
	dec, err := Decide(cq.NewUCQ(e.Q), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Exact {
		t.Fatal("the Example 6.3 search must be exhaustive")
	}
	if dec.Has {
		t.Fatalf("Q has no 5-bounded UCQ rewriting (Example 6.3), found\n%s", plan.Render(dec.Plan))
	}
}
