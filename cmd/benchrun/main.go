// Command benchrun regenerates the paper-experiment tables of
// EXPERIMENTS.md: every table/figure of the paper plus its quantitative
// claims, printed as markdown. Run with -exp to select one experiment:
//
//	benchrun -exp t1    Table I: decision procedures vs ground truth
//	benchrun -exp f1    Figure 1: plan ξ0 (bound, correctness, speedup)
//	benchrun -exp f3    Figure 3: the 13-node plan for q3
//	benchrun -exp cdr   Section 5.1: CDR speedup table
//	benchrun -exp gs    Introduction: Graph Search scale independence
//	benchrun -exp pct   Introduction: coverage of random CQs
//	benchrun -exp ex33  Example 3.3: bounded output of views
//	benchrun -exp ex63  Example 6.3: FO vs UCQ separation
//	benchrun -exp all   everything (default)
//
// Every plan is cross-checked against direct evaluation; a disagreement
// exits non-zero. The engine's timing and heap gates are Go tests
// (gates_test.go, `go test -tags gates -count=1 -v .`).
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/boundedness"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/gadgets"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
	"repro/internal/vbrp"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (t1, f1, f3, cdr, gs, pct, ex33, ex63, all)")
	flag.Parse()
	matched := false
	for _, e := range []struct {
		id  string
		run func()
	}{
		{"t1", expT1}, {"f1", expF1}, {"f3", expF3}, {"cdr", expCDR},
		{"gs", expGS}, {"pct", expPct}, {"ex33", expEx33}, {"ex63", expEx63},
	} {
		if *exp == "all" || *exp == e.id {
			matched = true
			e.run()
		}
	}
	if !matched {
		log.Fatalf("unknown experiment %q (want t1, f1, f3, cdr, gs, pct, ex33, ex63 or all)", *exp)
	}
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

// expT1 validates every decidable row of Table I on labelled gadget
// families and reports wall-clock per decision.
func expT1() {
	header("EXP-T1 — Table I: complexity of VBRP (decision procedures on reduction families)")
	fmt.Println("| row | problem | instance | ground truth | decider verdict | time |")
	fmt.Println("|---|---|---|---|---|---|")

	cnfs := []struct {
		name string
		f    *gadgets.CNF
	}{
		{"sat ψ", &gadgets.CNF{Vars: []string{"x", "y"}, Clauses: []gadgets.Clause{
			{gadgets.Pos("x"), gadgets.Pos("y"), gadgets.Pos("y")},
			{gadgets.Neg("x"), gadgets.Pos("y"), gadgets.Pos("y")}}}},
		{"unsat ψ", &gadgets.CNF{Vars: []string{"x"}, Clauses: []gadgets.Clause{
			{gadgets.Pos("x"), gadgets.Pos("x"), gadgets.Pos("x")},
			{gadgets.Neg("x"), gadgets.Neg("x"), gadgets.Neg("x")}}}},
	}
	for _, tc := range cnfs {
		_, sat := tc.f.Satisfiable()
		r := gadgets.NewBOPReduction(tc.f)
		t0 := time.Now()
		bounded, _ := boundedness.BoundedOutputCQ(r.Q, r.S, r.A)
		fmt.Printf("| BOP(CQ) coNP-c (Th 3.4) | bounded output | %s | %v | %v | %s |\n",
			tc.name, !sat, bounded, time.Since(t0).Round(time.Microsecond))
	}
	for _, tc := range cnfs {
		_, sat := tc.f.Satisfiable()
		r := gadgets.NewFDVBRPReduction(tc.f)
		prob := &vbrp.Problem{S: r.S, A: r.A, Views: r.Views, M: r.M,
			Lang: plan.LangCQ, Consts: r.Q.Constants()}
		t0 := time.Now()
		dec, err := vbrp.DecideBoolean(cq.NewUCQ(r.Q), prob)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| VBRP(CQ), FDs, NP-c (Prop 4.5) | 1-bounded rewriting | %s | %v | %v | %s |\n",
			tc.name, sat, dec.Has, time.Since(t0).Round(time.Microsecond))
	}
	qbfs := []struct {
		name string
		phi  *gadgets.QBF3
	}{
		{"true φ", &gadgets.QBF3{X: []string{"x1", "x2"}, Y: []string{"y1"}, Z: []string{"z1"},
			Psi: &gadgets.CNF{Vars: []string{"x1", "x2", "y1", "z1"}, Clauses: []gadgets.Clause{
				{gadgets.Pos("x1"), gadgets.Pos("y1"), gadgets.Pos("z1")},
				{gadgets.Pos("x1"), gadgets.Neg("y1"), gadgets.Neg("z1")}}}}},
		{"false φ", &gadgets.QBF3{X: []string{"x1", "x2"}, Y: []string{"y1"}, Z: []string{"z1"},
			Psi: &gadgets.CNF{Vars: []string{"x1", "x2", "y1", "z1"}, Clauses: []gadgets.Clause{
				{gadgets.Pos("y1"), gadgets.Pos("y1"), gadgets.Pos("y1")}}}}},
	}
	for _, tc := range qbfs {
		want := tc.phi.Eval()
		r, err := gadgets.NewSigma3Reduction(tc.phi)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		got, _, err := r.Decide()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| VBRP(CQ) Σp3-c (Th 3.1) | 6-bounded rewriting | %s | %v | %v | %s |\n",
			tc.name, want, got, time.Since(t0).Round(time.Microsecond))
	}
	colorings := []struct {
		name string
		g    *gadgets.Graph
		pre  gadgets.Precoloring
	}{
		{"path ext.", &gadgets.Graph{Nodes: []string{"a", "b", "c"},
			Edges: [][2]string{{"a", "b"}, {"b", "c"}}}, gadgets.Precoloring{"a": "r", "c": "g"}},
		{"triangle non-ext.", &gadgets.Graph{
			Nodes: []string{"u", "v", "w", "lu", "lv", "lw"},
			Edges: [][2]string{{"u", "v"}, {"v", "w"}, {"w", "u"}, {"u", "lu"}, {"v", "lv"}, {"w", "lw"}}},
			gadgets.Precoloring{"lu": "r", "lv": "r", "lw": "r"}},
	}
	for _, tc := range colorings {
		want := tc.g.ExtendableTo3Coloring(tc.pre)
		r, err := gadgets.NewColoringReduction(tc.g, tc.pre, 0)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		got := boundedness.ASatisfiable(r.Q, r.S, r.A)
		fmt.Printf("| VBRP(ACQ) coNP-c (Th 4.1(1)) | A-satisfiability core | %s | %v | %v | %s |\n",
			tc.name, want, got, time.Since(t0).Round(time.Millisecond))
	}
	// Theorem 4.1(2): 3-colorability under {R(A→B,1), R'(∅→(E,F),6)}.
	for _, tc := range []struct {
		name string
		g    *gadgets.Graph
	}{
		{"triangle (3-col.)", &gadgets.Graph{Nodes: []string{"a", "b", "c"},
			Edges: [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}}},
		{"K4 (not 3-col.)", &gadgets.Graph{Nodes: []string{"a", "b", "c", "d"},
			Edges: [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}}},
	} {
		want := tc.g.ThreeColorable()
		r := gadgets.NewThreeColorReduction(tc.g)
		t0 := time.Now()
		got := boundedness.ASatisfiable(r.Q, r.S, r.A)
		fmt.Printf("| VBRP(ACQ) coNP-c (Th 4.1(2)) | A-satisfiability core | %s | %v | %v | %s |\n",
			tc.name, want, got, time.Since(t0).Round(time.Millisecond))
	}
	// Theorem 4.1(3): 3SAT under {R((A,B)→C,1), R'(∅→E,2)}.
	for _, tc := range cnfs {
		_, want := tc.f.Satisfiable()
		r := gadgets.NewSAT3KeyReduction(tc.f)
		t0 := time.Now()
		got := boundedness.ASatisfiable(r.Q, r.S, r.A)
		fmt.Printf("| VBRP(ACQ) coNP-c (Th 4.1(3)) | A-satisfiability core | %s | %v | %v | %s |\n",
			tc.name, want, got, time.Since(t0).Round(time.Microsecond))
	}
}

func expF1() {
	header("EXP-F1 — Figure 1: the 11-node plan ξ0 for Q0 using V1 under A0")
	const n0 = 50
	m := workload.NewMovies(n0)
	xi0 := m.Fig1Plan()
	rep := plan.Conforms(xi0, m.Schema, m.Access, m.Views())
	fmt.Printf("plan size: %d nodes (paper: 11); conforms: %v; derived fetch bound: %d = 2·N0\n\n",
		xi0.Size(), rep.Conforms, rep.FetchBound)
	sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("| |D| | ξ0 answers | fetched (≤ 2·N0 = 100) | ξ0 time (median of %d warm Executes) | direct scan | speedup |\n", warmRuns)
	fmt.Println("|---|---|---|---|---|---|")
	for _, size := range []int{1000, 10000, 100000} {
		db := m.Generate(workload.MoviesParams{Persons: size, Movies: size, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		rows, fetched, pt := execWarm(h, xi0)
		t0 := time.Now()
		direct, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatal("ξ0(D) != Q0(D)")
		}
		fmt.Printf("| %d | %d | %d | %s | %s | %.0fx |\n",
			db.Size(), len(rows), fetched, pt.Round(time.Microsecond), dt.Round(time.Microsecond),
			float64(dt)/float64(pt))
		closeHandle(h)
	}
}

// warmRuns is how many warm Executes execWarm times.
const warmRuns = 20

// execWarm executes p on h once for its answer and fetched count, then
// warmRuns more times on the same epoch, and returns the median latency of
// the warm calls: the first read of an epoch builds the view indices its
// joins probe, which a single timed call would measure instead of the plan.
func execWarm(h repro.Handle, p plan.Node) ([][]string, int, time.Duration) {
	rows, fetched, err := h.Execute(p)
	if err != nil {
		log.Fatal(err)
	}
	times := make([]time.Duration, warmRuns)
	for i := range times {
		t0 := time.Now()
		if _, _, err := h.Execute(p); err != nil {
			log.Fatal(err)
		}
		times[i] = time.Since(t0)
	}
	slices.Sort(times)
	return rows, fetched, times[warmRuns/2]
}

func closeHandle(h repro.Handle) {
	if err := h.Close(); err != nil {
		log.Fatal(err)
	}
}

func expF3() {
	header("EXP-F3 — Figure 3: the 13-node FO plan for q3 (Examples 5.3/5.4)")
	s := schema.New(schema.NewRelation("R", "A", "B"), schema.NewRelation("T", "C", "E"))
	a := access.NewSchema(
		access.NewConstraint("R", []string{"A"}, []string{"B"}, 3),
		access.NewConstraint("T", []string{"C"}, []string{"E"}, 3),
	)
	v3 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("y")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("y"), cq.Var("y")),
		cq.NewAtom("T", cq.Var("x"), cq.Var("y")),
	})
	views := map[string]*cq.UCQ{"V3": cq.NewUCQ(v3)}
	q2 := &fo.Exists{Vars: []string{"x"}, E: &fo.And{
		L: fo.NewAtom("V3", cq.Var("x"), cq.Var("y")),
		R: fo.Eq(cq.Var("x"), cq.Cst("1")),
	}}
	q4 := &fo.Exists{Vars: []string{"y"}, E: &fo.And{L: q2, R: fo.NewAtom("R", cq.Var("y"), cq.Var("z"))}}
	qp4 := &fo.Exists{Vars: []string{"w"}, E: fo.NewAtom("R", cq.Var("z"), cq.Var("w"))}
	q3 := &fo.Query{Name: "q3", Head: []string{"z"}, Body: &fo.And{L: q4, R: &fo.Not{E: qp4}}}

	c := topped.NewChecker(s, a, views)
	t0 := time.Now()
	res := c.Check(q3, 13)
	fmt.Printf("q3 topped by (R1,V3,A2,13): %v; plan size %d (paper: 13); checked in %s\n\n",
		res.Topped, res.Size, time.Since(t0).Round(time.Microsecond))
	fmt.Println("```")
	fmt.Print(plan.Render(res.Plan))
	fmt.Println("```")
}

func expCDR() {
	header("EXP-CDR — Section 5.1: bounded plans vs full scans on the CDR workload")
	c := workload.NewCDR(20, 5, 100)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	queries := c.Queries("p0000042", "d07")
	plans := map[string]plan.Node{}
	toppedCount := 0
	for _, q := range queries {
		if res := checker.Check(q.FO, 128); res.Topped {
			plans[q.Name] = res.Plan
			toppedCount++
		}
	}
	fmt.Printf("%d/%d queries topped (paper: >90%% of the workload improved)\n\n", toppedCount, len(queries))
	sys, err := repro.NewSystem(c.Schema, c.Access, nil, 128)
	if err != nil {
		log.Fatal(err)
	}
	for _, customers := range []int{2000, 20000, 100000} {
		db := c.Generate(workload.CDRParams{Customers: customers, Days: 30, Seed: 1})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		src := &eval.Source{DB: db}
		fmt.Printf("\n|D| = %d tuples (%d customers)\n\n", db.Size(), customers)
		fmt.Printf("| query | plan time (median of %d warm Executes) | full scan | speedup | fetched tuples |\n", warmRuns)
		fmt.Println("|---|---|---|---|---|")
		for _, q := range queries {
			p, ok := plans[q.Name]
			if !ok {
				fmt.Printf("| %s | — | — | not bounded | — |\n", q.Name)
				continue
			}
			rows, fetched, pt := execWarm(h, p)
			t0 := time.Now()
			var direct [][]string
			if q.CQ != nil {
				direct, err = eval.CQOnDB(q.CQ, src)
			} else {
				direct, err = eval.FOOnDB(q.FO, src)
			}
			if err != nil {
				log.Fatal(err)
			}
			dt := time.Since(t0)
			if !cq.RowsEqual(rows, direct) {
				log.Fatalf("%s: plan/scan disagree", q.Name)
			}
			fmt.Printf("| %s | %s | %s | %.0fx | %d |\n",
				q.Name, pt.Round(time.Microsecond), dt.Round(time.Microsecond),
				float64(dt)/float64(pt), fetched)
		}
		closeHandle(h)
	}
}

func expGS() {
	header("EXP-GS — Introduction: Graph Search under the friend-cap constraints")
	so := workload.NewSocial(60, 25)
	checker := topped.NewChecker(so.Schema, so.Access, nil)
	q := so.GraphSearchQuery("u000007", "2015-05-03", "city3")
	res := checker.Check(q, 64)
	if !res.Topped {
		log.Fatal(res.Reason)
	}
	rep := plan.Conforms(res.Plan, so.Schema, so.Access, nil)
	fmt.Printf("query topped (%d-node FO plan with negation); structural fetch bound %d tuples\n\n",
		res.Size, rep.FetchBound)
	sys, err := repro.NewSystem(so.Schema, so.Access, nil, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("| |D| | fetched | plan time (median of %d warm Executes) | full scan | speedup |\n", warmRuns)
	fmt.Println("|---|---|---|---|---|")
	for _, persons := range []int{5000, 50000, 200000} {
		db := so.Generate(workload.SocialParams{Persons: persons, Restaurants: 500, Dates: 28, Seed: 3})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		rows, fetched, pt := execWarm(h, res.Plan)
		t0 := time.Now()
		direct, err := eval.FOOnDB(q, &eval.Source{DB: db})
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatal("plan/scan disagree")
		}
		fmt.Printf("| %d | %d | %s | %s | %.0fx |\n",
			db.Size(), fetched, pt.Round(time.Microsecond), dt.Round(time.Microsecond),
			float64(dt)/float64(pt))
		closeHandle(h)
	}
}

func expPct() {
	header("EXP-PCT — Introduction: share of random CQs with a bounded rewriting vs constraints")
	c := workload.NewCDR(20, 5, 100)
	sets := []struct {
		name string
		a    *access.Schema
	}{
		{"no constraints", access.NewSchema()},
		{"keys only", access.NewSchema(c.CustKey)},
		{"keys + call fan-out", access.NewSchema(c.CustKey, c.CallFan)},
		{"full access schema", c.Access},
	}
	const population = 200
	fmt.Println("| access schema | topped queries | share |")
	fmt.Println("|---|---|---|")
	for _, set := range sets {
		checker := topped.NewChecker(c.Schema, set.a, nil)
		covered := 0
		for seed := int64(0); seed < population; seed++ {
			q := workload.RandomCQ(c.Schema, workload.RandomCQParams{
				Atoms: 2 + int(seed%3), ConstProb: 0.45, JoinProb: 0.5, HeadVars: 1, Seed: seed,
			})
			if res := checker.CheckCQ(q, 256); res.Topped {
				covered++
			}
		}
		fmt.Printf("| %s | %d/%d | %.0f%% |\n", set.name, covered, population,
			100*float64(covered)/float64(population))
	}
	fmt.Println("\n(The paper reports ~77% of random SPC queries boundedly evaluable under a few")
	fmt.Println("hundred constraints; the share grows monotonically with the access schema.)")
}

func expEx33() {
	header("EXP-EX33 — Example 3.3: bounded output of views decides rewritability")
	m := workload.NewMovies(25)
	v2 := cq.NewCQ([]cq.Term{cq.Var("pid")}, []cq.Atom{
		cq.NewAtom("person", cq.Var("pid"), cq.Var("n"), cq.Cst("NASA")),
	})
	ok, _ := boundedness.BoundedOutputCQ(v2, m.Schema, m.Access)
	fmt.Printf("V2(pid) = person(pid, n, \"NASA\") under A0: bounded output = %v (expected false)\n", ok)
	capped := access.NewSchema(m.Phi1, m.Phi2,
		access.NewConstraint("person", []string{"affiliation"}, []string{"pid"}, 200))
	ok2, bound := boundedness.BoundedOutputCQ(v2, m.Schema, capped)
	fmt.Printf("with person(affiliation -> pid, 200) added: bounded output = %v, bound = %d\n", ok2, bound)
	fmt.Println("=> the rewriting Q2 of Example 3.3 is usable exactly when the view output is bounded.")
}

func expEx63() {
	header("EXP-EX63 — Example 6.3: CQ-to-FO beats CQ-to-UCQ at M = 5")
	e := vbrp.NewEx63()
	p := e.FOPlan()
	fmt.Printf("FO plan (V3 \\ V1) ∪ V2: size %d, in FO: %v, in UCQ: %v\n",
		p.Size(), plan.InLanguage(p, plan.LangFO), plan.InLanguage(p, plan.LangUCQ))
	t0 := time.Now()
	prob := &vbrp.Problem{S: e.S, A: e.A, Views: e.Views, M: e.M,
		Lang: plan.LangUCQ, Consts: e.Q.Constants()}
	dec, err := vbrp.Decide(cq.NewUCQ(e.Q), prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive UCQ search (M=5): rewriting exists = %v, %d candidates checked, exact = %v [%s]\n",
		dec.Has, dec.Checked, dec.Exact, time.Since(t0).Round(time.Millisecond))
	fmt.Println("=> Q has a 5-bounded FO rewriting but no 5-bounded UCQ one (Theorem 6.1 context).")
}
