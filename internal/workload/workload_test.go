package workload

import (
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/topped"
)

func TestMoviesInstanceSatisfiesA0(t *testing.T) {
	m := NewMovies(15)
	for _, p := range []MoviesParams{
		{Persons: 100, Movies: 100, LikesPerPerson: 3, NASAShare: 5, Seed: 1},
		{Persons: 1000, Movies: 5000, LikesPerPerson: 5, NASAShare: 9, Seed: 2},
	} {
		db := m.Generate(p)
		ok, err := db.SatisfiesAll(m.Access)
		if err != nil || !ok {
			t.Fatalf("params %+v: instance violates A0: %v / %v", p, err, db.Violations(m.Access))
		}
	}
}

func TestCDRInstanceSatisfiesConstraints(t *testing.T) {
	c := NewCDR(12, 4, 50)
	db := c.Generate(CDRParams{Customers: 400, Days: 20, Seed: 3})
	ok, err := db.SatisfiesAll(c.Access)
	if err != nil || !ok {
		t.Fatalf("CDR instance violates constraints: %v / %v", err, db.Violations(c.Access))
	}
}

func TestCDRWorkloadToppedness(t *testing.T) {
	c := NewCDR(12, 4, 50)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	queries := c.Queries("p0000007", "d05")
	boundCount := 0
	for _, q := range queries {
		res := checker.Check(q.FO, 64)
		if res.Topped != q.IsBound {
			t.Errorf("%s (%s): topped=%v want %v (%s)", q.Name, q.Descr, res.Topped, q.IsBound, res.Reason)
			continue
		}
		if res.Topped {
			boundCount++
			rep := plan.Conforms(res.Plan, c.Schema, c.Access, nil)
			if !rep.Conforms {
				t.Errorf("%s: generated plan does not conform: %s", q.Name, rep.Reason)
			}
		}
	}
	// The paper reports > 90% of the CDR workload improved; our workload
	// has 9/10 topped by construction.
	if boundCount != 9 {
		t.Fatalf("expected 9/10 topped queries, got %d", boundCount)
	}
}

func TestCDRPlansMatchBaseline(t *testing.T) {
	c := NewCDR(8, 3, 30)
	db := c.Generate(CDRParams{Customers: 500, Days: 15, Seed: 11})
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
	if err != nil {
		t.Fatal(err)
	}
	src := &eval.Source{DB: db}
	for _, q := range c.Queries("p0000003", "d03") {
		res := checker.Check(q.FO, 64)
		if !res.Topped {
			continue
		}
		got, fetched, err := plan.Run(res.Plan, ix, nil)
		if err != nil {
			t.Fatalf("%s: run: %v", q.Name, err)
		}
		var want [][]string
		if q.CQ != nil {
			want, err = eval.CQOnDB(q.CQ, src)
		} else {
			want, err = eval.FOOnDB(q.FO, src)
		}
		if err != nil {
			t.Fatalf("%s: baseline: %v", q.Name, err)
		}
		if !cq.RowsEqual(got, want) {
			slices.SortFunc(got, slices.Compare)
			slices.SortFunc(want, slices.Compare)
			t.Fatalf("%s: plan %d rows vs baseline %d rows\nplan:\n%s", q.Name, len(got), len(want), plan.Render(res.Plan))
		}
		if fetched > 20000 {
			t.Fatalf("%s: fetched %d tuples; plans must touch a bounded slice", q.Name, fetched)
		}
	}
}

func TestCDRFetchCountScaleIndependent(t *testing.T) {
	c := NewCDR(8, 3, 30)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	q := c.Queries("p0000003", "d03")[2] // Q3: 2-hop
	res := checker.Check(q.FO, 64)
	if !res.Topped {
		t.Fatalf("Q3 must be topped: %s", res.Reason)
	}
	var fetched [2]int
	for i, n := range []int{300, 3000} {
		db := c.Generate(CDRParams{Customers: n, Days: 15, Seed: 4})
		ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
		if err != nil {
			t.Fatal(err)
		}
		if _, fetched[i], err = plan.Run(res.Plan, ix, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The fetch bound is a constant (≤ FanOut + FanOut²·...) regardless of
	// |D|; allow equality or small variation from data sparsity.
	bound := c.FanOut + c.FanOut*c.FanOut + 10
	for i, f := range fetched {
		if f > bound {
			t.Fatalf("instance %d fetched %d > bound %d", i, f, bound)
		}
	}
}

func TestGraphSearchTopped(t *testing.T) {
	so := NewSocial(40, 20)
	checker := topped.NewChecker(so.Schema, so.Access, nil)
	q := so.GraphSearchQuery("u000001", "2015-05-03", "city7")
	res := checker.Check(q, 64)
	if !res.Topped {
		t.Fatalf("the Graph Search query must be topped (intro example): %s", res.Reason)
	}
	rep := plan.Conforms(res.Plan, so.Schema, so.Access, nil)
	if !rep.Conforms {
		t.Fatalf("plan must conform: %s", rep.Reason)
	}
	// The paper's bound: friends·(dines + ratings checks) — with caps 40
	// friends, 1 dinner key and 60-dinner history: constant in |D|.
	db := so.Generate(SocialParams{Persons: 2000, Restaurants: 300, Dates: 28, Seed: 9})
	if ok, _ := db.SatisfiesAll(so.Access); !ok {
		t.Fatalf("instance violates constraints: %v", db.Violations(so.Access))
	}
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), so.Access)
	if err != nil {
		t.Fatal(err)
	}
	got, fetched, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.FOOnDB(q, &eval.Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, want) {
		t.Fatalf("plan %d rows vs FO baseline %d rows\n%s", len(got), len(want), plan.Render(res.Plan))
	}
	maxFetch := so.FriendCap * 3 * 2 // friends × (dine key + history + city)
	if fetched > maxFetch {
		t.Fatalf("fetched %d > structural bound %d", fetched, maxFetch)
	}
}

func TestRandomInstanceSatisfiesConstraints(t *testing.T) {
	c := NewCDR(5, 2, 10)
	db := RandomInstance(c.Schema, c.Access, 500, 60, 17)
	ok, err := db.SatisfiesAll(c.Access)
	if err != nil || !ok {
		t.Fatalf("random instance violates constraints: %v / %v", err, db.Violations(c.Access))
	}
	if db.Size() == 0 {
		t.Fatal("random instance should not be empty")
	}
}

func TestRandomCQGeneration(t *testing.T) {
	c := NewCDR(5, 2, 10)
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		q := RandomCQ(c.Schema, RandomCQParams{
			Atoms: 3, ConstProb: 0.3, JoinProb: 0.4, HeadVars: 2, Seed: seed,
		})
		if len(q.Atoms) != 3 {
			t.Fatalf("expected 3 atoms, got %d", len(q.Atoms))
		}
		if err := q.Validate(c.Schema, nil); err != nil {
			t.Fatalf("invalid random query: %v", err)
		}
		seen[q.Canonical()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("random queries not diverse enough: %d distinct of 20", len(seen))
	}
}

func TestFOFromCQRoundTripOnWorkload(t *testing.T) {
	// The FO embedding of each CQ workload query evaluates identically to
	// the CQ itself.
	c := NewCDR(6, 2, 20)
	db := c.Generate(CDRParams{Customers: 150, Days: 10, Seed: 23})
	src := &eval.Source{DB: db}
	for _, q := range c.Queries("p0000002", "d02") {
		if q.CQ == nil {
			continue
		}
		fq := fo.FromCQ(q.CQ)
		gotFO, err := eval.FOOnDB(fq, src)
		if err != nil {
			t.Fatalf("%s: FO eval: %v", q.Name, err)
		}
		gotCQ, err := eval.CQOnDB(q.CQ, src)
		if err != nil {
			t.Fatalf("%s: CQ eval: %v", q.Name, err)
		}
		if !cq.RowsEqual(gotFO, gotCQ) {
			t.Fatalf("%s: FO/CQ evaluation mismatch: %d vs %d rows", q.Name, len(gotFO), len(gotCQ))
		}
	}
}
