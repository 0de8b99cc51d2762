package plan_test

import (
	"sync"
	"testing"

	"repro/internal/plan"
)

// fetchChain is fetch(A ∈ fetch(∅, R, A), R, B): two dependent fetches,
// with fresh output names.
func fetchChain(g *viewPlanGen) plan.Node {
	all := &plan.Fetch{C: g.cAll, As: []string{g.fresh()}}
	a := all.As[0]
	return &plan.Fetch{
		Child: &plan.Project{Child: all, Cols: []string{a}},
		C:     g.cA, Bind: []string{a}, As: []string{g.fresh(), g.fresh()},
	}
}

// TestRunParallelBranches runs a plan whose products, union and
// difference all have two fetching inputs, from 8 goroutines at once over
// one compiled program and through Run's pooled programs: each run takes
// its own Execution and builds both inputs of every op in that
// Execution's arena. Every answer must equal the sequential reference
// interpreter's. Under -race it checks that no two concurrent runs build
// in one arena and that a reset arena is not reused while its rows are
// read.
func TestRunParallelBranches(t *testing.T) {
	f := newViewIndexFixture(t, 5)
	g := f.gen
	vx := f.index(t)
	pv := plan.PrepareViews(vx.Dict(), f.views)
	pair := func() plan.Node { return &plan.Product{L: fetchChain(g), R: fetchChain(g)} }
	narrowed := pair()
	p := &plan.Diff{
		L: &plan.Union{L: pair(), R: pair()},
		R: &plan.Select{Child: narrowed, Cond: []plan.CondItem{{L: narrowed.Attrs()[1], RConst: true, R: "v1"}}},
	}
	ref := &refRun{vx: vx, views: f.views}
	rows, err := ref.run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := canonRows(rows)
	if len(rows) == 0 {
		t.Fatal("fixture too sparse: the plan answers nothing")
	}
	prog, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				got, x, err := plan.Exec(nil, prog, vx, pv)
				fetched := x.Fetched()
				x.Release()
				if r%2 == 1 {
					got, fetched, err = plan.Run(p, vx, pv)
				}
				if err != nil || canonRows(got) != want || fetched != ref.fetched {
					t.Errorf("err=%v, fetched %d (want %d), rows\n got %s\nwant %s", err, fetched, ref.fetched, canonRows(got), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunConcurrentFetchAccounting runs plans with two fetching inputs per
// op — products, unions and differences of fetch chains, plus random
// plans — through Run from 8 goroutines over one VIndex. Every call's
// fetched count must equal the sum of its per-constraint group rows and
// the sequential reference's count: the executor, not the source, counts
// |Dξ|, in the slots of the run's own Execution, so concurrent runs never
// mix their counts. Run with -race.
func TestRunConcurrentFetchAccounting(t *testing.T) {
	f := newViewIndexFixture(t, 3)
	g := f.gen
	vx := f.index(t)
	pv := plan.PrepareViews(vx.Dict(), f.views)

	chain := func() plan.Node { return fetchChain(g) }
	narrowed := func() plan.Node {
		c := chain()
		return &plan.Select{Child: c, Cond: []plan.CondItem{{L: c.Attrs()[1], RConst: true, R: "v1"}}}
	}
	plans := []plan.Node{
		&plan.Product{L: chain(), R: chain()},
		&plan.Union{L: chain(), R: narrowed()},
		&plan.Diff{L: chain(), R: narrowed()},
		&plan.Product{
			L: &plan.Union{L: chain(), R: chain()},
			R: &plan.Diff{L: chain(), R: narrowed()},
		},
	}
	for i := 0; i < 60; i++ {
		plans = append(plans, g.node(3))
	}

	want := make([]int, len(plans))
	fetching := 0
	for i, p := range plans {
		ref := &refRun{vx: vx, views: f.views}
		if _, err := ref.run(p); err != nil {
			t.Fatalf("reference failed on\n%s: %v", plan.Render(p), err)
		}
		want[i] = ref.fetched
		if ref.fetched > 0 {
			fetching++
		}
		got, x, err := plan.Exec(p, nil, vx, pv)
		if err != nil {
			t.Fatalf("plan %d: %v\n%s", i, err, plan.Render(p))
		}
		fetched, groupRows := x.Fetched(), 0
		for _, gr := range profileOf(x, len(got)).Groups {
			groupRows += gr.Out
		}
		x.Release()
		if fetched != want[i] || groupRows != want[i] {
			t.Fatalf("plan %d: fetched %d, group rows %d, reference %d\n%s",
				i, fetched, groupRows, want[i], plan.Render(p))
		}
	}
	if want[0] == 0 || fetching < 4 {
		t.Fatalf("fixture too sparse: %d plans fetch anything", fetching)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for k := range plans {
					i := (k + w*len(plans)/8) % len(plans)
					_, fetched, err := plan.Run(plans[i], vx, pv)
					if err != nil || fetched != want[i] {
						t.Errorf("worker %d plan %d: err=%v fetched %d, want %d", w, i, err, fetched, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
