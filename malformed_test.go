package repro

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// malformedPlans are plans that name attributes their inputs lack, or
// whose operators disagree on arity — shapes no plan generator emits, but
// a caller can hand to Execute. Several put the fault under a product of
// two non-leaf sides, in the right input, which runs after the left one
// has fetched.
func malformedPlans(m *workload.Movies) map[string]Plan {
	fetch := func() Plan {
		return &plan.Fetch{
			Child: &plan.Product{
				L: &plan.Const{Attr: "studio", Val: "Universal"},
				R: &plan.Const{Attr: "release", Val: "2014"},
			},
			C: m.Phi1,
		}
	}
	v1 := &plan.View{Name: "V1", Cols: []string{"mid2"}}
	join := func(conds ...plan.CondItem) Plan {
		return &plan.Select{Child: &plan.Product{L: fetch(), R: v1}, Cond: conds}
	}
	return map[string]Plan{
		"project":     &plan.Project{Child: m.Fig1Plan(), Cols: []string{"nope"}},
		"select":      &plan.Select{Child: fetch(), Cond: []plan.CondItem{{L: "nope", RConst: true, R: "5"}}},
		"select-rhs":  &plan.Select{Child: fetch(), Cond: []plan.CondItem{{L: "mid", R: "nope"}}},
		"select-view": &plan.Select{Child: v1, Cond: []plan.CondItem{{L: "nope", RConst: true, R: "5"}}},
		"join-local":  join(plan.CondItem{L: "mid", R: "mid2"}, plan.CondItem{L: "nope", R: "mid"}),
		"join-const":  join(plan.CondItem{L: "mid", R: "mid2"}, plan.CondItem{L: "nope", RConst: true, R: "x"}),
		"right-input": &plan.Select{
			Child: &plan.Product{L: fetch(), R: &plan.Project{Child: fetch(), Cols: []string{"nope"}}},
			Cond:  []plan.CondItem{{L: "mid", R: "nope"}},
		},
		"fetch-names": &plan.Fetch{Child: &plan.Project{Child: fetch(), Cols: []string{"mid"}}, C: m.Phi2, As: []string{"mid"}},
		"union-arity": &plan.Union{L: fetch(), R: v1},
		"diff-arity":  &plan.Diff{L: v1, R: fetch()},
	}
}

// TestMalformedPlansErrorNotPanic runs every malformed plan through both
// engines and a pinned snapshot: each execution must return an error,
// never panic.
func TestMalformedPlansErrorNotPanic(t *testing.T) {
	sys, m := movieSystem(t)
	for _, opts := range [][]OpenOption{nil, {WithShards(8)}} {
		db := m.Generate(workload.MoviesParams{Persons: 200, Movies: 200, LikesPerPerson: 4, NASAShare: 5, Seed: 1})
		h, err := sys.Open(db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap := h.Snapshot()
		for name, p := range malformedPlans(m) {
			for i := 0; i < 2; i++ {
				if _, _, err := h.Execute(p); err == nil {
					t.Errorf("%T: %s: Execute returned no error", h, name)
				}
				if _, _, err := snap.Execute(p); err == nil {
					t.Errorf("%T: %s: Snapshot.Execute returned no error", h, name)
				}
			}
		}
		// The handle still serves well-formed plans afterwards.
		if _, _, err := h.Execute(m.Fig1Plan()); err != nil {
			t.Fatalf("%T: ξ0 after malformed plans: %v", h, err)
		}
		snap.Close()
		h.Close()
	}
}
