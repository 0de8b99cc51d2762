package plan_test

import (
	"testing"

	"repro/internal/access"
	"repro/internal/boundedness"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/workload"
)

// The Figure 1 plan ξ0 is the paper's flagship example; these tests verify
// every claim Examples 2.1-2.3 make about it.

func fig1Fixture(t *testing.T) (*workload.Movies, plan.Node) {
	t.Helper()
	m := workload.NewMovies(20)
	xi0 := m.Fig1Plan()
	if err := plan.Validate(xi0, m.Schema); err != nil {
		t.Fatalf("ξ0 invalid: %v", err)
	}
	return m, xi0
}

func TestFig1PlanIs11Bounded(t *testing.T) {
	_, xi0 := fig1Fixture(t)
	if got := xi0.Size(); got != 11 {
		t.Fatalf("ξ0 must have 11 nodes (Example 2.2), got %d", got)
	}
}

func TestFig1PlanIsCQPlan(t *testing.T) {
	_, xi0 := fig1Fixture(t)
	if !plan.InLanguage(xi0, plan.LangCQ) {
		t.Fatal("ξ0 is a CQ plan (Example 2.3)")
	}
	if !plan.InLanguage(xi0, plan.LangUCQ) || !plan.InLanguage(xi0, plan.LangFO) {
		t.Fatal("every CQ plan is also a UCQ/FO plan")
	}
}

func TestFig1Conformance(t *testing.T) {
	m, xi0 := fig1Fixture(t)
	rep := plan.Conforms(xi0, m.Schema, m.Access, m.Views())
	if !rep.Conforms {
		t.Fatalf("ξ0 must conform to A0: %s", rep.Reason)
	}
	want := int64(2 * m.N0)
	if rep.FetchBound != want {
		t.Fatalf("derived fetch bound: got %d want %d (= 2·N0, Example 2.2)", rep.FetchBound, want)
	}
}

func TestFig1UnfoldsToQxi(t *testing.T) {
	m, xi0 := fig1Fixture(t)
	u := plan.NewUnfolder(m.Schema, m.Views())
	uq, err := u.UCQ(xi0)
	if err != nil {
		t.Fatalf("unfold: %v", err)
	}
	if len(uq.Disjuncts) != 1 {
		t.Fatalf("CQ plan must unfold to a single disjunct, got %d", len(uq.Disjuncts))
	}
	// Q_ξ ≡_{A0} Q0 (Example 2.3); they are not classically equivalent in
	// one direction: Q_ξ ⊑ Q0 holds, Q0 ⊑ Q_ξ needs ϕ2.
	q0u := cq.NewUCQ(m.Q0)
	if !boundedness.AContainedUCQ(uq, q0u, m.Schema, m.Access) {
		t.Fatal("Q_ξ ⊑_A0 Q0 must hold")
	}
	if !boundedness.AContainedUCQ(q0u, uq, m.Schema, m.Access) {
		t.Fatal("Q0 ⊑_A0 Q_ξ must hold")
	}
}

func TestFig1ExecutionMatchesQ0(t *testing.T) {
	m, xi0 := fig1Fixture(t)
	db := m.Generate(workload.MoviesParams{
		Persons: 600, Movies: 500, LikesPerPerson: 6, NASAShare: 10, Seed: 7,
	})
	if ok, err := db.SatisfiesAll(m.Access); err != nil || !ok {
		t.Fatalf("generated instance must satisfy A0 (err=%v)", err)
	}
	views, err := eval.Materialize(m.Views(), db)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
	if err != nil {
		t.Fatalf("indexes: %v", err)
	}
	got, fetched, err := plan.Run(xi0, vx, plan.PrepareViews(db.Dict, views))
	if err != nil {
		t.Fatalf("run ξ0: %v", err)
	}
	want, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
	if err != nil {
		t.Fatalf("eval Q0: %v", err)
	}
	if !cq.RowsEqual(got, want) {
		t.Fatalf("ξ0(D) != Q0(D): got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("fixture should produce a non-empty answer")
	}
	if fetched > 2*m.N0 {
		t.Fatalf("ξ0 fetched %d tuples, bound is 2·N0 = %d", fetched, 2*m.N0)
	}
}

func TestFig1FetchCountIndependentOfSize(t *testing.T) {
	m, xi0 := fig1Fixture(t)
	for i, p := range []workload.MoviesParams{
		{Persons: 200, Movies: 200, LikesPerPerson: 4, NASAShare: 10, Seed: 1},
		{Persons: 2000, Movies: 2000, LikesPerPerson: 4, NASAShare: 10, Seed: 1},
	} {
		db := m.Generate(p)
		views, err := eval.Materialize(m.Views(), db)
		if err != nil {
			t.Fatal(err)
		}
		vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
		if err != nil {
			t.Fatal(err)
		}
		_, fetched, err := plan.Run(xi0, vx, plan.PrepareViews(db.Dict, views))
		if err != nil {
			t.Fatal(err)
		}
		if fetched > 2*m.N0 {
			t.Fatalf("instance %d: fetched %d > 2·N0", i, fetched)
		}
	}
}

func TestConformanceRejectsUncoveredFetch(t *testing.T) {
	m, _ := fig1Fixture(t)
	// A fetch driven by a constraint absent from A0 must not conform.
	rogue := access.NewConstraint("person", []string{"affiliation"}, []string{"pid"}, 50)
	p := &plan.Fetch{
		Child: &plan.Const{Attr: "affiliation", Val: "NASA"},
		C:     rogue,
	}
	rep := plan.Conforms(p, m.Schema, m.Access, m.Views())
	if rep.Conforms {
		t.Fatal("fetch over a constraint not in A must not conform")
	}
}

func TestConformanceRejectsUnboundedInput(t *testing.T) {
	m, _ := fig1Fixture(t)
	// Feeding the rating fetch from the whole V1 view is fine for
	// conformance only if V1 has bounded output — it does not under A0.
	p := &plan.Fetch{
		Child: &plan.Rename{
			Child: &plan.View{Name: "V1", Cols: []string{"mid2"}},
			Pairs: []plan.RenamePair{{From: "mid2", To: "mid"}},
		},
		C: m.Phi2,
	}
	rep := plan.Conforms(p, m.Schema, m.Access, m.Views())
	if rep.Conforms {
		t.Fatal("fetch fed by unbounded V1 must not conform (Section 3.1)")
	}
}

func TestPlanLanguagesUnionDiscipline(t *testing.T) {
	m, _ := fig1Fixture(t)
	leafA := &plan.Fetch{C: access.NewConstraint("rating", nil, []string{"mid"}, 3)}
	leafB := &plan.Fetch{C: access.NewConstraint("rating", nil, []string{"mid"}, 3)}
	topUnion := &plan.Union{L: leafA, R: leafB}
	if plan.InLanguage(topUnion, plan.LangCQ) {
		t.Fatal("∪ is not a CQ operation")
	}
	if !plan.InLanguage(topUnion, plan.LangUCQ) {
		t.Fatal("top-level ∪ is a UCQ plan")
	}
	// ∪ under a projection violates the UCQ top-level discipline.
	proj := &plan.Project{Child: topUnion, Cols: []string{"mid"}}
	if plan.InLanguage(proj, plan.LangUCQ) {
		t.Fatal("∪ below π is not a UCQ plan")
	}
	if !plan.InLanguage(proj, plan.LangPosFO) {
		t.Fatal("∪ below π is an ∃FO+ plan")
	}
	diff := &plan.Diff{L: leafA, R: leafB}
	if plan.InLanguage(diff, plan.LangPosFO) {
		t.Fatal("\\ is FO-only")
	}
	if !plan.InLanguage(diff, plan.LangFO) {
		t.Fatal("\\ is an FO plan")
	}
	_ = m
}

func TestDiffExecution(t *testing.T) {
	m, _ := fig1Fixture(t)
	db := m.Generate(workload.MoviesParams{Persons: 50, Movies: 80, LikesPerPerson: 3, NASAShare: 5, Seed: 3})
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
	if err != nil {
		t.Fatal(err)
	}
	// fetch Universal/2014 movies minus themselves = empty.
	mk := func() plan.Node {
		return &plan.Project{
			Child: &plan.Fetch{
				Child: &plan.Product{
					L: &plan.Const{Attr: "studio", Val: "Universal"},
					R: &plan.Const{Attr: "release", Val: "2014"},
				},
				C: m.Phi1,
			},
			Cols: []string{"mid"},
		}
	}
	d := &plan.Diff{L: mk(), R: mk()}
	rows, _, err := plan.Run(d, vx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("S \\ S must be empty, got %d rows", len(rows))
	}
}

func TestUnfoldFOOnFig1(t *testing.T) {
	m, xi0 := fig1Fixture(t)
	u := plan.NewUnfolder(m.Schema, m.Views())
	fq, err := u.FO(xi0)
	if err != nil {
		t.Fatalf("FO unfold: %v", err)
	}
	db := m.Generate(workload.MoviesParams{Persons: 120, Movies: 150, LikesPerPerson: 5, NASAShare: 6, Seed: 11})
	views, err := eval.Materialize(m.Views(), db)
	if err != nil {
		t.Fatal(err)
	}
	_ = views
	got, err := eval.FOOnDB(fq, &eval.Source{DB: db})
	if err != nil {
		t.Fatalf("FO eval: %v", err)
	}
	want, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	// The FO unfolding of ξ0 has no rating-uniqueness assumption, so it can
	// only differ from Q0 on instances violating A0; this instance
	// satisfies A0, so results must agree.
	if !cq.RowsEqual(got, want) {
		t.Fatalf("FO unfolding disagrees with Q0 on an A0-instance: %d vs %d rows", len(got), len(want))
	}
}
