package repro

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestExecAllocBudget bounds the allocations of one warm read on each
// serving path: ξ0 on Movies through Handle.Execute, which compiles the
// caller's plan on every call, and a per-uid point query on a P = 8
// Sharded handle through PreparedQuery.Execute, which reuses the program
// compiled for its binding; and, through Handle.Execute at P = 1 and
// P = 8, a union and a product of two fetch chains, whose two branches
// run one after the other in the run's arena. The plan executor allocates
// per answer, not per row: intermediate rows live in the pooled
// Execution's arena, so the budgets hold whatever the fetch fan-out. The
// race detector's instrumentation allocates on its own, so the gate skips
// under it.
func TestExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		fig1Budget     = 8
		pointBudget    = 4
		branchesBudget = 4
	)
	t.Run("fig1", func(t *testing.T) {
		sys, m := movieSystemN0(t, 50)
		db := m.Generate(workload.MoviesParams{Persons: 4000, Movies: 4000, LikesPerPerson: 5, NASAShare: 10, Seed: 1})
		want, err := sys.EvalDirect(NewUCQ(m.Q0), db)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sys.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		p := m.Fig1Plan()
		rows, fetched, err := h.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, want) || len(want) == 0 || fetched < 50 {
			t.Fatalf("ξ0: %d rows (want %d), %d fetched", len(rows), len(want), fetched)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := h.Execute(p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ξ0 via Handle.Execute: %.1f allocs per call, %d rows, %d fetched", allocs, len(rows), fetched)
		if allocs > fig1Budget {
			t.Fatalf("ξ0 allocates %.1f times per call, budget %d", allocs, fig1Budget)
		}
	})
	t.Run("point", func(t *testing.T) {
		sys, w, h, db := shardedFixture(t, 400, 5, 8)
		defer h.Close()
		uid := w.UID(7)
		q := NewUCQ(w.Query(uid))
		want, err := sys.EvalDirect(q, db)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := sys.Prepare(q, LangCQ)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := pq.Execute(h)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, want) || len(want) == 0 {
			t.Fatalf("point query: %d rows, want %d", len(rows), len(want))
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := pq.Execute(h); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("point query via PreparedQuery.Execute: %.1f allocs per call, %d rows", allocs, len(rows))
		if allocs > pointBudget {
			t.Fatalf("point query allocates %.1f times per call, budget %d", allocs, pointBudget)
		}
	})
	t.Run("branches", func(t *testing.T) {
		w, sys, db := shardedWorkload(t, 400, 5)
		// chain returns π(item, amt) of txn fetched by the uid that acct
		// fetched for the constant uid, every attribute suffixed by sfx,
		// with the atoms and the head of the CQ it answers.
		chain := func(uid, sfx string) (plan.Node, []cq.Atom, []cq.Term) {
			as := func(c *access.Constraint) []string {
				var names []string
				for _, a := range c.XY() {
					names = append(names, a+sfx)
				}
				return names
			}
			u := "uid" + sfx
			acct := &plan.Fetch{Child: &plan.Const{Attr: u, Val: uid}, C: w.Acct, Bind: []string{u}, As: as(w.Acct)}
			txn := &plan.Fetch{Child: &plan.Project{Child: acct, Cols: []string{u}}, C: w.Txn, Bind: []string{u}, As: as(w.Txn)}
			i, a := cq.Var("i"+sfx), cq.Var("a"+sfx)
			atoms := []cq.Atom{
				cq.NewAtom("acct", cq.Cst(uid), cq.Var("r"+sfx)),
				cq.NewAtom("txn", cq.Cst(uid), i, a),
			}
			return &plan.Project{Child: txn, Cols: []string{"item" + sfx, "amt" + sfx}}, atoms, []cq.Term{i, a}
		}
		l, la, lh := chain(w.UID(7), "1")
		r, ra, rh := chain(w.UID(8), "2")
		plans := []struct {
			name string
			p    Plan
			q    *UCQ
		}{
			{"union", &plan.Union{L: l, R: r}, NewUCQ(cq.NewCQ(lh, la), cq.NewCQ(rh, ra))},
			{"product", &plan.Product{L: l, R: r}, NewUCQ(cq.NewCQ(append(lh, rh...), append(la, ra...)))},
		}
		for _, p := range []int{1, 8} {
			h, err := sys.Open(db.Clone(), WithShards(p))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			for _, c := range plans {
				want, err := sys.EvalDirect(c.q, db)
				if err != nil {
					t.Fatal(err)
				}
				rows, fetched, err := h.Execute(c.p)
				if err != nil {
					t.Fatal(err)
				}
				if !cq.RowsEqual(rows, want) || len(want) == 0 {
					t.Fatalf("P = %d, %s: %d rows, want %d", p, c.name, len(rows), len(want))
				}
				allocs := testing.AllocsPerRun(200, func() {
					if _, _, err := h.Execute(c.p); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("P = %d, %s via Handle.Execute: %.1f allocs per call, %d rows, %d fetched", p, c.name, allocs, len(rows), fetched)
				if allocs > branchesBudget {
					t.Fatalf("P = %d, %s allocates %.1f times per call, budget %d", p, c.name, allocs, branchesBudget)
				}
			}
		}
	})
}

// fig1With is ξ0 and Q0 of the Movies fixture with every occurrence of the
// constants in sub replaced.
func fig1With(m *workload.Movies, sub map[string]string) (Plan, *UCQ) {
	p := m.Fig1Plan()
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Const:
			if v, ok := sub[x.Val]; ok {
				x.Val = v
			}
		case *plan.Select:
			for i, c := range x.Cond {
				if v, ok := sub[c.R]; ok && c.RConst {
					x.Cond[i].R = v
				}
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(p)
	atoms := make([]cq.Atom, len(m.Q0.Atoms))
	for i, a := range m.Q0.Atoms {
		args := append([]cq.Term(nil), a.Args...)
		for k, t := range args {
			if v, ok := sub[t.Val]; ok && t.Const {
				args[k].Val = v
			}
		}
		atoms[i] = cq.NewAtom(a.Rel, args...)
	}
	return p, NewUCQ(cq.NewCQ(m.Q0.Head, atoms))
}

// TestReadsNeverIntern: a read resolves its plan's constants by lookup
// only. A constant the dictionary lacks gets a program-local ID that
// matches no stored value, so 1,000 executions of ξ0 with constants no
// database row holds leave a durable handle's dictionary — which journals
// its growth with the next batch — exactly as large as before, and answer
// like direct evaluation. Absent constants that reach the answer decode
// from the program's own table, and equal ones compare equal.
func TestReadsNeverIntern(t *testing.T) {
	sys, m := movieSystemN0(t, 50)
	db := m.Generate(workload.MoviesParams{Persons: 1000, Movies: 1000, LikesPerPerson: 5, NASAShare: 10, Seed: 1})
	mirror := db.Clone()
	h, err := sys.Open(db, WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	dict := h.(*Live).sh.Dict()
	before := dict.Len()
	for i := 0; i < 1000; i++ {
		sub := map[string]string{"Universal": fmt.Sprintf("fresh-studio-%d", i)}
		if i%2 == 1 {
			sub = map[string]string{"5": fmt.Sprintf("fresh-rank-%d", i)}
		}
		p, q := fig1With(m, sub)
		rows, _, err := h.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			want, err := sys.EvalDirect(q, mirror)
			if err != nil {
				t.Fatal(err)
			}
			if !cq.RowsEqual(rows, want) {
				t.Fatalf("execution %d (%v): %v, direct evaluation %v", i, sub, rows, want)
			}
		}
	}
	if got := dict.Len(); got != before {
		t.Fatalf("reads grew the dictionary from %d to %d strings", before, got)
	}

	// Absent constants in the answer: a = b holds for two equal ones, and
	// the row decodes to the constants themselves.
	pair := func(a, b string) Plan {
		return &plan.Select{
			Child: &plan.Product{L: &plan.Const{Attr: "a", Val: a}, R: &plan.Const{Attr: "b", Val: b}},
			Cond:  []plan.CondItem{{L: "a", R: "b"}, {L: "a", RConst: true, R: a}},
		}
	}
	rows, _, err := h.Execute(pair("absent-x", "absent-x"))
	if err != nil || len(rows) != 1 || rows[0][0] != "absent-x" || rows[0][1] != "absent-x" {
		t.Fatalf("equal absent constants: rows %v, err %v", rows, err)
	}
	if rows, _, err := h.Execute(pair("absent-x", "absent-y")); err != nil || rows != nil {
		t.Fatalf("distinct absent constants: rows %v, err %v", rows, err)
	}
	if got := dict.Len(); got != before {
		t.Fatalf("reads grew the dictionary from %d to %d strings", before, got)
	}
}
