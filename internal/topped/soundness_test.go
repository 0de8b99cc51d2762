package topped_test

import (
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/topped"
	"repro/internal/workload"
)

// The end-to-end soundness property of the effective syntax (Theorem
// 5.1(b)): whenever the checker accepts a query, the synthesized plan
// conforms to A and computes exactly the query's answer on instances
// satisfying A. Exercised over a large random-query population on the CDR
// schema against randomly generated A-instances.
func TestToppedSoundnessOnRandomQueries(t *testing.T) {
	c := workload.NewCDR(6, 3, 12)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	dbs := []*instance.Database{
		c.Generate(workload.CDRParams{Customers: 60, Days: 8, Seed: 41}),
		workload.RandomInstance(c.Schema, c.Access, 300, 40, 42),
	}
	type fixture struct {
		db  *instance.Database
		ix  *instance.VIndex
		src *eval.Source
	}
	var fixtures []fixture
	for _, db := range dbs {
		if ok, _ := db.SatisfiesAll(c.Access); !ok {
			t.Fatalf("instance violates A: %v", db.Violations(c.Access))
		}
		ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{db, ix, &eval.Source{DB: db}})
	}

	toppedCount, checked := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		q := workload.RandomCQ(c.Schema, workload.RandomCQParams{
			Atoms:     1 + int(seed%3),
			ConstProb: 0.5,
			JoinProb:  0.5,
			HeadVars:  1 + int(seed%2),
			Seed:      seed,
		})
		res := checker.CheckCQ(q, 256)
		if !res.Topped {
			continue
		}
		toppedCount++
		// The plan must conform.
		rep := plan.Conforms(res.Plan, c.Schema, c.Access, nil)
		if !rep.Conforms {
			t.Fatalf("seed %d: accepted query's plan does not conform: %s\nquery: %s", seed, rep.Reason, q)
		}
		for fi, f := range fixtures {
			got, _, err := plan.Run(res.Plan, f.ix, nil)
			if err != nil {
				t.Fatalf("seed %d fixture %d: run: %v\n%s", seed, fi, err, plan.Render(res.Plan))
			}
			want, err := eval.CQOnDB(q, f.src)
			if err != nil {
				t.Fatalf("seed %d fixture %d: eval: %v", seed, fi, err)
			}
			if !cq.RowsEqual(got, want) {
				slices.SortFunc(got, slices.Compare)
				slices.SortFunc(want, slices.Compare)
				t.Fatalf("seed %d fixture %d: plan/query disagree\nquery: %s\nplan:\n%sgot  %v\nwant %v",
					seed, fi, q, plan.Render(res.Plan), got, want)
			}
			checked++
		}
	}
	if toppedCount < 10 {
		t.Fatalf("population too easy/too hard: only %d topped queries", toppedCount)
	}
	t.Logf("verified %d plan executions over %d topped queries", checked, toppedCount)
}
