package plan_test

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
	"repro/internal/workload"
)

// The defining property of unfolding (Section 2): the query Q_ξ expressed
// by a plan satisfies ξ(D) = Q_ξ(D) on every instance — whether D |= A or
// not. Exercised over all synthesized CDR plans on instances both
// satisfying and violating the access schema.
func TestUnfoldingAgreesWithExecution(t *testing.T) {
	c := workload.NewCDR(5, 2, 10)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	u := plan.NewUnfolder(c.Schema, nil)

	good := c.Generate(workload.CDRParams{Customers: 60, Days: 8, Seed: 5})
	// A deliberately violating instance: duplicate a caller's day beyond
	// the fan-out bound.
	bad := good.Clone()
	for i := 0; i < 12; i++ {
		bad.MustInsert("calls", "p0000001", "x"+itoa(i), "d03", "99")
	}
	if ok, _ := bad.SatisfiesAll(c.Access); ok {
		t.Fatal("the second instance must violate A")
	}

	for _, q := range c.Queries("p0000001", "d03") {
		res := checker.Check(q.FO, 128)
		if !res.Topped {
			continue
		}
		uq, err := u.UCQ(res.Plan)
		if err != nil {
			// FO plans (Q8) unfold via the FO path; skip the UCQ property.
			continue
		}
		for name, db := range map[string]*instance.Database{"satisfying": good, "violating": bad} {
			ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := plan.Run(res.Plan, ix, nil)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", q.Name, name, err)
			}
			want, err := eval.UCQOnDB(uq, &eval.Source{DB: db})
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", q.Name, name, err)
			}
			if !cq.RowsEqual(got, want) {
				t.Fatalf("%s/%s: ξ(D) != Q_ξ(D): %d vs %d rows\n%s",
					q.Name, name, len(got), len(want), plan.Render(res.Plan))
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	out := ""
	for n > 0 {
		out = string(rune('0'+n%10)) + out
		n /= 10
	}
	return out
}

// The approximated unfolding over-approximates: on every instance, a
// Diff-plan's output is contained in the positive unfolding's output.
func TestApproxUnfoldingOverApproximates(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 3))
	mk := func() plan.Node {
		return &plan.Fetch{
			Child: &plan.Const{Attr: "A", Val: "k"},
			C:     a.Constraints[0],
		}
	}
	p := &plan.Diff{
		L: mk(),
		R: &plan.Select{Child: mk(), Cond: []plan.CondItem{{L: "B", RConst: true, R: "1"}}},
	}
	if err := plan.Validate(p, s); err != nil {
		t.Fatal(err)
	}
	db := instance.NewDatabase(s)
	db.MustInsert("R", "k", "1")
	db.MustInsert("R", "k", "2")
	db.MustInsert("R", "k", "3")
	db.MustInsert("R", "z", "9")
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.Run(p, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Diff plan keeps the k-rows whose B is not 1.
	if len(got) != 2 {
		t.Fatalf("diff plan: %v", got)
	}
	u := plan.NewUnfolder(s, nil)
	uq, err := u.UCQApprox(p)
	if err != nil {
		t.Fatal(err)
	}
	over, err := eval.UCQOnDB(uq, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	superset := map[string]bool{}
	for _, r := range over {
		superset[instance.Tuple(r).Key()] = true
	}
	for _, r := range got {
		if !superset[instance.Tuple(r).Key()] {
			t.Fatalf("plan row %v missing from the positive over-approximation", r)
		}
	}
	// And the over-approximation is strict here: it includes the B=1 row.
	if len(over) <= len(got) {
		t.Fatalf("expected a strict over-approximation: %d vs %d", len(over), len(got))
	}
}
