package vbrp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
)

// TestCandidatesAllConformAndMatchDirect is the property test for the full
// enumeration: EVERY candidate in the frontier — not just the selected one
// — must (a) conform to the access schema, (b) evaluate identically to
// direct evaluation of Q on instances satisfying A, and (c) respect its
// own structural fetch bound at runtime. Randomized over constraint
// cardinalities, instance contents and query shape, in the style of the
// PR 2 differential harness.
func TestCandidatesAllConformAndMatchDirect(t *testing.T) {
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		s := schema.New(
			schema.NewRelation("R", "A", "B"),
			schema.NewRelation("S", "B", "C"),
		)
		n1 := 1 + rng.Intn(5)
		n2 := 1 + rng.Intn(4)
		selR := access.NewConstraint("R", []string{"A"}, []string{"B"}, n1)
		selS := access.NewConstraint("S", []string{"B"}, []string{"C"}, n2)
		allR := access.NewConstraint("R", nil, []string{"A", "B"}, 300)
		a := access.NewSchema(selR, selS, allR)

		vr := cq.NewCQ([]cq.Term{cq.Var("a"), cq.Var("b")}, []cq.Atom{cq.NewAtom("R", cq.Var("a"), cq.Var("b"))})
		vr.Name = "VR"
		views := map[string]*cq.UCQ{"VR": cq.NewUCQ(vr)}

		// Alternate between the single-atom lookup and the 2-hop join.
		var q *cq.CQ
		m := 3
		if trial%2 == 1 {
			q = cq.NewCQ([]cq.Term{cq.Var("c")}, []cq.Atom{
				cq.NewAtom("R", cq.Cst("k"), cq.Var("b")),
				cq.NewAtom("S", cq.Var("b"), cq.Var("c")),
			})
			m = 5
		} else {
			q = cq.NewCQ([]cq.Term{cq.Var("b")}, []cq.Atom{
				cq.NewAtom("R", cq.Cst("k"), cq.Var("b")),
			})
		}
		uq := cq.NewUCQ(q)

		db := randConformingInstance(rng, s, n1, n2)
		if ok, err := db.SatisfiesAll(a); err != nil || !ok {
			t.Fatalf("trial %d: generated instance violates A: %v %v", trial, db.Violations(a), err)
		}

		prob := &Problem{S: s, A: a, Views: views, M: m, Lang: plan.LangCQ, Consts: q.Constants()}
		cands, err := Candidates(uq, prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(cands) == 0 {
			t.Fatalf("trial %d: the view path guarantees at least one candidate", trial)
		}

		mats, err := eval.Materialize(views, db)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eval.UCQOnDB(uq, &eval.Source{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cands {
			rep := plan.Conforms(c.Plan, s, a, views)
			if !rep.Conforms {
				t.Fatalf("trial %d candidate %d does not conform (%s):\n%s", trial, ci, rep.Reason, plan.Render(c.Plan))
			}
			if rep.FetchBound != c.FetchBound {
				t.Fatalf("trial %d candidate %d: bound %d recorded, conformance derives %d", trial, ci, c.FetchBound, rep.FetchBound)
			}
			rows, fetched, err := plan.Run(c.Plan, ix, plan.PrepareViews(ix.Dict(), mats))
			if err != nil {
				t.Fatalf("trial %d candidate %d: %v", trial, ci, err)
			}
			if !cq.RowsEqual(rows, direct) {
				t.Fatalf("trial %d candidate %d disagrees with direct evaluation (%d vs %d rows):\n%s",
					trial, ci, len(rows), len(direct), plan.Render(c.Plan))
			}
			if int64(fetched) > c.FetchBound {
				t.Fatalf("trial %d candidate %d fetched %d > declared bound %d",
					trial, ci, fetched, c.FetchBound)
			}
		}
	}
}

// randConformingInstance draws an instance of R(A,B), S(B,C) that
// satisfies the per-group caps by construction: inserts that would exceed
// a group's distinct-Y budget are skipped.
func randConformingInstance(rng *rand.Rand, s *schema.Schema, n1, n2 int) *instance.Database {
	db := instance.NewDatabase(s)
	groupsR := map[string]map[string]bool{}
	groupsS := map[string]map[string]bool{}
	insert := func(groups map[string]map[string]bool, cap int, rel, x, y string) {
		g := groups[x]
		if g == nil {
			g = map[string]bool{}
			groups[x] = g
		}
		if !g[y] && len(g) >= cap {
			return
		}
		g[y] = true
		db.MustInsert(rel, x, y)
	}
	kRows := rng.Intn(n1 + 1) // possibly zero: Q may be empty
	for i := 0; i < kRows; i++ {
		insert(groupsR, n1, "R", "k", fmt.Sprintf("b%d", rng.Intn(8)))
	}
	for i := 0; i < 40+rng.Intn(40); i++ {
		insert(groupsR, n1, "R", fmt.Sprintf("a%d", rng.Intn(12)), fmt.Sprintf("b%d", rng.Intn(8)))
	}
	for i := 0; i < 30+rng.Intn(30); i++ {
		insert(groupsS, n2, "S", fmt.Sprintf("b%d", rng.Intn(8)), fmt.Sprintf("c%d", rng.Intn(10)))
	}
	return db
}
