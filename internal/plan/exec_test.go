package plan_test

import (
	"sync"
	"testing"

	"repro/internal/plan"
)

// TestRunConcurrentFetchAccounting runs plans whose independent subtrees
// fetch in parallel — products, unions and differences of fetch chains,
// plus random plans — through Run from 8 goroutines over one VIndex. Every
// call's fetched count must equal the sum of its Observation's group rows
// and the sequential reference's count: the executor, not the source,
// counts |Dξ|, and parallel workers must merge that count exactly. Run
// with -race.
func TestRunConcurrentFetchAccounting(t *testing.T) {
	f := newViewIndexFixture(t, 3)
	g := f.gen
	vx := f.index(t)
	pv := plan.PrepareViews(vx.Dict(), f.views)

	// chain is fetch(A ∈ fetch(∅, R, A), R, B): two dependent fetches.
	chain := func() plan.Node {
		all := &plan.Fetch{C: g.cAll, As: []string{g.fresh()}}
		a := all.As[0]
		return &plan.Fetch{
			Child: &plan.Project{Child: all, Cols: []string{a}},
			C:     g.cA, Bind: []string{a}, As: []string{g.fresh(), g.fresh()},
		}
	}
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
		_, fetched, ob, err := plan.RunObserved(p, vx, pv)
		if err != nil {
			t.Fatalf("plan %d: %v\n%s", i, err, plan.Render(p))
		}
		groupRows := 0
		for _, gr := range ob.Groups {
			groupRows += gr.Rows
		}
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
