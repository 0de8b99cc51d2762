package repro

// The benchmark harness regenerates every table and figure of the paper
// (see EXPERIMENTS.md for the index):
//
//	Table I   -> BenchmarkTableI_*        (decision procedures on the
//	             hardness-gadget families, verdicts checked against
//	             brute-force ground truth)
//	Figure 1  -> BenchmarkFig1_*          (the 11-node plan ξ0: synthesis
//	             and execution vs the full-scan baseline)
//	Figure 2  -> BenchmarkFig2_Gadget     (Boolean-encoding instances)
//	Figure 3  -> BenchmarkFig3_ToppedQ3   (the 13-node FO plan for q3)
//	§1/§5.1   -> BenchmarkCDR_*           (bounded plans vs full scans)
//	§1        -> BenchmarkGraphSearch_*   (constant |Dξ| under growth)
//	§1        -> BenchmarkPct_Coverage    (% of random CQs with a bounded
//	             rewriting, vs access-schema size)
//	Ex. 3.3   -> BenchmarkEx33_*          (bounded output of views)
//	Ex. 6.3   -> BenchmarkEx63_*          (FO vs UCQ separation)
//	ablations -> BenchmarkAblation_*      (element-query enumeration
//	             strategies; FD chase vs generic equivalence)

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/boundedness"
	"repro/internal/chase"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/gadgets"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/topped"
	"repro/internal/vbrp"
	"repro/internal/workload"
)

// ---- Table I ----

func benchCNFs() []*gadgets.CNF {
	return []*gadgets.CNF{
		{Vars: []string{"x", "y"}, Clauses: []gadgets.Clause{
			{gadgets.Pos("x"), gadgets.Pos("y"), gadgets.Pos("y")},
			{gadgets.Neg("x"), gadgets.Pos("y"), gadgets.Pos("y")},
		}},
		{Vars: []string{"x"}, Clauses: []gadgets.Clause{
			{gadgets.Pos("x"), gadgets.Pos("x"), gadgets.Pos("x")},
			{gadgets.Neg("x"), gadgets.Neg("x"), gadgets.Neg("x")},
		}},
	}
}

// BenchmarkTableI_BOP_CQ: the coNP row — BOP(CQ) decided through the
// 3SAT reduction of Theorem 3.4.
func BenchmarkTableI_BOP_CQ(b *testing.B) {
	fs := benchCNFs()
	rs := make([]*gadgets.BOPReduction, len(fs))
	sat := make([]bool, len(fs))
	for i, f := range fs {
		rs[i] = gadgets.NewBOPReduction(f)
		_, sat[i] = f.Satisfiable()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rs[i%len(rs)]
		bounded, _ := boundedness.BoundedOutputCQ(r.Q, r.S, r.A)
		if bounded != !sat[i%len(rs)] {
			b.Fatal("BOP verdict disagrees with SAT ground truth")
		}
	}
}

// BenchmarkTableI_VBRP_FD: the NP-complete row — VBRP(CQ) under FDs with
// fixed M = 1 and V = {Qc} (Proposition 4.5).
func BenchmarkTableI_VBRP_FD(b *testing.B) {
	fs := benchCNFs()
	type inst struct {
		r   *gadgets.FDVBRPReduction
		sat bool
	}
	insts := make([]inst, len(fs))
	for i, f := range fs {
		_, s := f.Satisfiable()
		insts[i] = inst{gadgets.NewFDVBRPReduction(f), s}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := insts[i%len(insts)]
		prob := &vbrp.Problem{S: in.r.S, A: in.r.A, Views: in.r.Views, M: in.r.M,
			Lang: plan.LangCQ, Consts: in.r.Q.Constants()}
		dec, err := vbrp.DecideBoolean(cq.NewUCQ(in.r.Q), prob)
		if err != nil || dec.Has != in.sat {
			b.Fatalf("VBRP verdict wrong: %v %v", dec.Has, err)
		}
	}
}

// BenchmarkTableI_VBRP_Sigma3: the Σp3-complete row — the Theorem 3.1
// construction decided by assignment guessing + Πp2 equivalence checks.
func BenchmarkTableI_VBRP_Sigma3(b *testing.B) {
	phi := &gadgets.QBF3{
		X: []string{"x1", "x2"}, Y: []string{"y1"}, Z: []string{"z1"},
		Psi: &gadgets.CNF{Vars: []string{"x1", "x2", "y1", "z1"}, Clauses: []gadgets.Clause{
			{gadgets.Pos("x1"), gadgets.Pos("y1"), gadgets.Pos("z1")},
			{gadgets.Pos("x1"), gadgets.Neg("y1"), gadgets.Neg("z1")},
		}},
	}
	want := phi.Eval()
	r, err := gadgets.NewSigma3Reduction(phi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := r.Decide()
		if err != nil || got != want {
			b.Fatalf("Σp3 verdict wrong: %v %v", got, err)
		}
	}
}

// BenchmarkTableI_VBRP_ACQ: the coNP-complete ACQ row — A-emptiness of the
// precoloring-extension gadget under the single constraint R(A→B,2)
// (Theorem 4.1(1)).
func BenchmarkTableI_VBRP_ACQ(b *testing.B) {
	g := &gadgets.Graph{Nodes: []string{"a", "b", "c"}, Edges: [][2]string{{"a", "b"}, {"b", "c"}}}
	pre := gadgets.Precoloring{"a": "r", "c": "g"}
	want := g.ExtendableTo3Coloring(pre)
	r, err := gadgets.NewColoringReduction(g, pre, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := boundedness.ASatisfiable(r.Q, r.S, r.A); got != want {
			b.Fatal("coloring verdict wrong")
		}
	}
}

// BenchmarkTableI_ACQ_FD_PTIME: the PTIME row — chase-based A-equivalence
// for ACQ under FDs (Corollary 4.4).
func BenchmarkTableI_ACQ_FD_PTIME(b *testing.B) {
	m := workload.NewMovies(25)
	fdOnly := NewAccessSchema(m.Phi2) // the rating FD
	q1 := NewCQ([]Term{Var("r1"), Var("r2")}, []Atom{
		NewAtom("rating", Var("m"), Var("r1")),
		NewAtom("rating", Var("m"), Var("r2")),
	})
	q2 := NewCQ([]Term{Var("r"), Var("r")}, []Atom{
		NewAtom("rating", Var("m"), Var("r")),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !chase.AEquivalentFD(q1, q2, m.Schema, fdOnly) {
			b.Fatal("chase equivalence must hold under the FD")
		}
	}
}

// ---- Figure 1 ----

var fig1Fixture = struct {
	once     sync.Once
	m        *workload.Movies
	plan     plan.Node
	dbs      map[int]*instance.Database
	views    map[int]map[string][][]string
	prepared map[int]*plan.PreparedViews
	vxs      map[int]*instance.VIndex
}{}

func fig1Setup(b *testing.B) {
	fig1Fixture.once.Do(func() {
		m := workload.NewMovies(50)
		fig1Fixture.m = m
		fig1Fixture.plan = m.Fig1Plan()
		fig1Fixture.dbs = map[int]*instance.Database{}
		fig1Fixture.views = map[int]map[string][][]string{}
		fig1Fixture.prepared = map[int]*plan.PreparedViews{}
		fig1Fixture.vxs = map[int]*instance.VIndex{}
		for _, size := range []int{1000, 10000, 100000} {
			db := m.Generate(workload.MoviesParams{
				Persons: size, Movies: size, LikesPerPerson: 5, NASAShare: 10, Seed: 7,
			})
			views, err := eval.Materialize(m.Views(), db)
			if err != nil {
				panic(err)
			}
			vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
			if err != nil {
				panic(err)
			}
			fig1Fixture.dbs[size] = db
			fig1Fixture.views[size] = views
			fig1Fixture.prepared[size] = plan.PrepareViews(db.Dict, views)
			fig1Fixture.vxs[size] = vx
		}
	})
}

// BenchmarkFig1_PlanXi0 executes the Figure 1 plan over the prepared view
// cache; sub-benchmarks sweep |D|. The fetch count stays ≤ 2·N0 at every
// size.
func BenchmarkFig1_PlanXi0(b *testing.B) {
	fig1Setup(b)
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			vx := fig1Fixture.vxs[size]
			views := fig1Fixture.prepared[size]
			for i := 0; i < b.N; i++ {
				_, fetched, err := plan.Run(fig1Fixture.plan, vx, views)
				if err != nil {
					b.Fatal(err)
				}
				if fetched > 2*fig1Fixture.m.N0 {
					b.Fatal("fetch bound violated")
				}
			}
		})
	}
}

// BenchmarkBuildVIndex builds the per-constraint fetch indices over the
// Figure 1 instance, the index build Open performs.
func BenchmarkBuildVIndex(b *testing.B) {
	fig1Setup(b)
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			db := fig1Fixture.dbs[size]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), fig1Fixture.m.Access); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1_Materialize computes the view extents V(D) from scratch —
// the join-heavy UCQ evaluation a cache refresh performs.
func BenchmarkFig1_Materialize(b *testing.B) {
	fig1Setup(b)
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			db := fig1Fixture.dbs[size]
			for i := 0; i < b.N; i++ {
				if _, err := eval.Materialize(fig1Fixture.m.Views(), db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1_DirectScan is the baseline Q0(D) by full evaluation.
func BenchmarkFig1_DirectScan(b *testing.B) {
	fig1Setup(b)
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			db := fig1Fixture.dbs[size]
			for i := 0; i < b.N; i++ {
				if _, err := eval.CQOnDB(fig1Fixture.m.Q0, &eval.Source{DB: db}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1_Synthesis checks topped-ness of Q_ξ and synthesizes the
// 11-node plan (the PTIME path of Theorem 5.1).
func BenchmarkFig1_Synthesis(b *testing.B) {
	m := workload.NewMovies(50)
	body := &fo.Exists{Vars: []string{"ym"}, E: &fo.And{
		L: &fo.And{
			L: fo.NewAtom("movie", Var("mid"), Var("ym"), Cst("Universal"), Cst("2014")),
			R: fo.NewAtom("V1", Var("mid")),
		},
		R: fo.NewAtom("rating", Var("mid"), Cst("5")),
	}}
	q := &fo.Query{Head: []string{"mid"}, Body: body}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := topped.NewChecker(m.Schema, m.Access, m.Views())
		res := c.Check(q, 11)
		if !res.Topped || res.Size != 11 {
			b.Fatalf("expected the 11-node plan, got %v/%d", res.Topped, res.Size)
		}
	}
}

// ---- Figure 2 ----

// BenchmarkFig2_Gadget builds the Boolean-encoding instances and verifies
// they satisfy the gadget access schema.
func BenchmarkFig2_Gadget(b *testing.B) {
	r := gadgets.NewBOPReduction(benchCNFs()[0])
	for i := 0; i < b.N; i++ {
		db := instance.NewDatabase(r.S)
		gadgets.FillBool(db)
		db.MustInsert("Ro", "k", "1")
		ok, err := db.SatisfiesAll(r.A)
		if err != nil || !ok {
			b.Fatal("Figure 2 instances must satisfy the constraints")
		}
	}
}

// ---- Figure 3 ----

// BenchmarkFig3_ToppedQ3 checks q3 and synthesizes the 13-node FO plan.
func BenchmarkFig3_ToppedQ3(b *testing.B) {
	s := NewSchema(NewRelation("R", "A", "B"), NewRelation("T", "C", "E"))
	a := NewAccessSchema(
		NewConstraint("R", []string{"A"}, []string{"B"}, 3),
		NewConstraint("T", []string{"C"}, []string{"E"}, 3),
	)
	v3 := NewCQ([]Term{Var("x"), Var("y")}, []Atom{
		NewAtom("R", Var("y"), Var("y")),
		NewAtom("T", Var("x"), Var("y")),
	})
	views := map[string]*UCQ{"V3": NewUCQ(v3)}
	q2 := &fo.Exists{Vars: []string{"x"}, E: &fo.And{
		L: fo.NewAtom("V3", Var("x"), Var("y")),
		R: fo.Eq(Var("x"), Cst("1")),
	}}
	q4 := &fo.Exists{Vars: []string{"y"}, E: &fo.And{L: q2, R: fo.NewAtom("R", Var("y"), Var("z"))}}
	qp4 := &fo.Exists{Vars: []string{"w"}, E: fo.NewAtom("R", Var("z"), Var("w"))}
	q3 := &fo.Query{Head: []string{"z"}, Body: &fo.And{L: q4, R: &fo.Not{E: qp4}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := topped.NewChecker(s, a, views)
		res := c.Check(q3, 13)
		if !res.Topped || res.Size != 13 {
			b.Fatalf("expected the 13-node Figure 3 plan, got %v/%d", res.Topped, res.Size)
		}
	}
}

// ---- CDR workload (Section 5.1) ----

var cdrFixture = struct {
	once  sync.Once
	c     *workload.CDR
	plans map[string]plan.Node
	qs    []workload.CDRQuery
	dbs   map[int]*instance.Database
	vxs   map[int]*instance.VIndex
}{}

func cdrSetup() {
	cdrFixture.once.Do(func() {
		c := workload.NewCDR(20, 5, 100)
		cdrFixture.c = c
		cdrFixture.qs = c.Queries("p0000042", "d07")
		checker := topped.NewChecker(c.Schema, c.Access, nil)
		cdrFixture.plans = map[string]plan.Node{}
		for _, q := range cdrFixture.qs {
			if res := checker.Check(q.FO, 128); res.Topped {
				cdrFixture.plans[q.Name] = res.Plan
			}
		}
		cdrFixture.dbs = map[int]*instance.Database{}
		cdrFixture.vxs = map[int]*instance.VIndex{}
		for _, n := range []int{2000, 20000} {
			db := c.Generate(workload.CDRParams{Customers: n, Days: 30, Seed: 1})
			vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
			if err != nil {
				panic(err)
			}
			cdrFixture.dbs[n] = db
			cdrFixture.vxs[n] = vx
		}
	})
}

// BenchmarkCDR_BoundedPlans runs all topped CDR query plans.
func BenchmarkCDR_BoundedPlans(b *testing.B) {
	cdrSetup()
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("customers=%d", n), func(b *testing.B) {
			vx := cdrFixture.vxs[n]
			for i := 0; i < b.N; i++ {
				for _, q := range cdrFixture.qs {
					p, ok := cdrFixture.plans[q.Name]
					if !ok {
						continue
					}
					if _, _, err := plan.Run(p, vx, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCDR_FullScans is the baseline: the same queries by full
// evaluation.
func BenchmarkCDR_FullScans(b *testing.B) {
	cdrSetup()
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("customers=%d", n), func(b *testing.B) {
			src := &eval.Source{DB: cdrFixture.dbs[n]}
			for i := 0; i < b.N; i++ {
				for _, q := range cdrFixture.qs {
					if _, ok := cdrFixture.plans[q.Name]; !ok {
						continue
					}
					var err error
					if q.CQ != nil {
						_, err = eval.CQOnDB(q.CQ, src)
					} else {
						_, err = eval.FOOnDB(q.FO, src)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- Graph Search (introduction) ----

func BenchmarkGraphSearch_Plan(b *testing.B) {
	so := workload.NewSocial(60, 25)
	checker := topped.NewChecker(so.Schema, so.Access, nil)
	q := so.GraphSearchQuery("u000007", "2015-05-03", "city3")
	res := checker.Check(q, 64)
	if !res.Topped {
		b.Fatal(res.Reason)
	}
	db := so.Generate(workload.SocialParams{Persons: 20000, Restaurants: 500, Dates: 28, Seed: 3})
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), so.Access)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.Run(res.Plan, vx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Coverage (intro claim: % of random CQs with a bounded rewriting) ----

// BenchmarkPct_Coverage measures topped-checking over a random CQ
// population and reports coverage per access-schema size as a custom
// metric (pct_covered).
func BenchmarkPct_Coverage(b *testing.B) {
	c := workload.NewCDR(20, 5, 100)
	constraintSets := map[string]*AccessSchema{
		"full": c.Access,
		"half": NewAccessSchema(c.CustKey, c.CallFan),
		"none": NewAccessSchema(),
	}
	for name, a := range constraintSets {
		b.Run(name, func(b *testing.B) {
			covered, total := 0, 0
			for i := 0; i < b.N; i++ {
				checker := topped.NewChecker(c.Schema, a, nil)
				for seed := int64(0); seed < 40; seed++ {
					q := workload.RandomCQ(c.Schema, workload.RandomCQParams{
						Atoms: 2 + int(seed)%3, ConstProb: 0.45, JoinProb: 0.5,
						HeadVars: 1, Seed: seed,
					})
					total++
					if res := checker.CheckCQ(q, 256); res.Topped {
						covered++
					}
				}
			}
			b.ReportMetric(100*float64(covered)/float64(total), "pct_covered")
		})
	}
}

// ---- Example 3.3 (bounded output of views) ----

func BenchmarkEx33_BoundedOutput(b *testing.B) {
	m := workload.NewMovies(25)
	// V2(pid) = person(pid, n, "NASA"): unbounded under A0; bounded once a
	// global cap on NASA staff is added.
	v2 := NewCQ([]Term{Var("pid")}, []Atom{
		NewAtom("person", Var("pid"), Var("n"), Cst("NASA")),
	})
	capped := NewAccessSchema(m.Phi1, m.Phi2,
		NewConstraint("person", []string{"affiliation"}, []string{"pid"}, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := boundedness.BoundedOutputCQ(v2, m.Schema, m.Access); ok {
			b.Fatal("V2 must be unbounded under A0")
		}
		if ok, _ := boundedness.BoundedOutputCQ(v2, m.Schema, capped); !ok {
			b.Fatal("V2 must be bounded once NASA staff is capped")
		}
	}
}

// ---- Example 6.3 (FO vs UCQ separation) ----

func BenchmarkEx63_FOPlan(b *testing.B) {
	e := vbrp.NewEx63()
	p := e.FOPlan()
	tab, _ := cq.Freeze(e.Q)
	db := instance.NewDatabase(e.S)
	for rel, rows := range tab.Rows {
		for _, row := range rows {
			db.MustInsert(rel, row...)
		}
	}
	views, err := eval.Materialize(e.Views, db)
	if err != nil {
		b.Fatal(err)
	}
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), e.A)
	if err != nil {
		b.Fatal(err)
	}
	pv := plan.PrepareViews(db.Dict, views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := plan.Run(p, vx, pv)
		if err != nil || len(rows) == 0 {
			b.Fatal("the FO plan must answer true on T_Q")
		}
	}
}

// BenchmarkEx63_NoUCQPlan runs the exhaustive UCQ search that proves the
// separation (expensive by design: it is the Σp3 guess space).
func BenchmarkEx63_NoUCQPlan(b *testing.B) {
	e := vbrp.NewEx63()
	for i := 0; i < b.N; i++ {
		prob := &vbrp.Problem{
			S: e.S, A: e.A, Views: e.Views, M: e.M,
			Lang: plan.LangUCQ, Consts: e.Q.Constants(),
		}
		dec, err := vbrp.Decide(cq.NewUCQ(e.Q), prob)
		if err != nil || dec.Has || !dec.Exact {
			b.Fatal("Example 6.3 must have no 5-bounded UCQ rewriting")
		}
	}
}

// ---- Ablations ----

// BenchmarkAblation_ElementQueries compares the exhaustive (textbook)
// element-query enumeration with the violation-driven minimal one.
func BenchmarkAblation_ElementQueries(b *testing.B) {
	s := NewSchema(NewRelation("R", "X", "Y"))
	a := NewAccessSchema(NewConstraint("R", []string{"X"}, []string{"Y"}, 2))
	q := NewCQ([]Term{Var("u")}, []Atom{
		NewAtom("R", Cst("c"), Var("u")),
		NewAtom("R", Cst("c"), Var("v")),
		NewAtom("R", Cst("c"), Var("w")),
		NewAtom("R", Var("u"), Var("t")),
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := boundedness.ExhaustiveElementQueries(q, s, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boundedness.MinimalElementQueries(q, s, a)
		}
	})
}

// BenchmarkAblation_FDChaseVsGeneric compares the PTIME chase path
// (Corollary 4.4) against the generic element-query A-equivalence on an
// FD-only instance.
func BenchmarkAblation_FDChaseVsGeneric(b *testing.B) {
	s := NewSchema(NewRelation("R", "A", "B"))
	a := NewAccessSchema(NewConstraint("R", []string{"A"}, []string{"B"}, 1))
	q1 := NewCQ([]Term{Var("x"), Var("y")}, []Atom{
		NewAtom("R", Var("a"), Var("x")),
		NewAtom("R", Var("a"), Var("y")),
	})
	q2 := NewCQ([]Term{Var("x"), Var("y")},
		[]Atom{NewAtom("R", Var("a"), Var("x"))},
		cq.Equality{L: Var("x"), R: Var("y")})
	b.Run("chase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !chase.AEquivalentFD(q1, q2, s, a) {
				b.Fatal("must be A-equivalent")
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !boundedness.AEquivalentCQ(q1, q2, s, a) {
				b.Fatal("must be A-equivalent")
			}
		}
	})
}

// ---- PR 2: live-update subsystem ----

// BenchmarkLive_ApplyDelta measures sustained incremental maintenance:
// one churn batch of ~1% of |D| through a Live handle (row shadows, fetch
// indices, counted view extents, prepared plan inputs — all patched).
// Compare against BenchmarkLive_FullRefresh at the same size: the paper's
// scale-independence story needs the former to win by widening margins.
func BenchmarkLive_ApplyDelta(b *testing.B) {
	for _, size := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			m := workload.NewMovies(50)
			db := m.Generate(workload.MoviesParams{Persons: size, Movies: size, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
			sys, err := NewSystem(m.Schema, m.Access, m.Views(), 11)
			if err != nil {
				b.Fatal(err)
			}
			l, err := sys.Open(db)
			if err != nil {
				b.Fatal(err)
			}
			ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: 1})
			batch := db.Size() / 100
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins, del := ch.Batch(batch)
				if _, err := l.ApplyDelta(ins, del); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLive_FullRefresh is the cost incremental maintenance avoids:
// re-materializing the views and rebuilding the fetch indices from
// scratch, as the pre-live maintenance layer did on every deletion.
func BenchmarkLive_FullRefresh(b *testing.B) {
	for _, size := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			m := workload.NewMovies(50)
			db := m.Generate(workload.MoviesParams{Persons: size, Movies: size, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				views, err := eval.Materialize(m.Views(), db)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access); err != nil {
					b.Fatal(err)
				}
				plan.PrepareViews(db.Dict, views)
			}
		})
	}
}

// churnCycle draws half ShardedChurn batches of ops operations against db
// and appends their inverses in reverse order, so applying the whole cycle
// returns the database to its generated state: a stationary write load
// whatever the number of batches applied.
func churnCycle(w *workload.Sharded, db *instance.Database, half, ops int, seed int64) (ins, dels [][]instance.Op) {
	ch := w.NewChurn(db, seed)
	for n := 0; n < half; n++ {
		i, d := ch.Batch(ops)
		ins, dels = append(ins, i), append(dels, d)
	}
	for n := half - 1; n >= 0; n-- {
		// Deletes apply first, so the inverse removes the batch's inserts
		// before it restores the rows the batch deleted.
		ins, dels = append(ins, dels[n]), append(dels, ins[n])
	}
	return ins, dels
}

// openChurnHandle generates the Sharded fixture (NTxn = 8, 4 txns per
// user) at the given size, draws a churn cycle of half batches of 256
// ops, and opens an in-memory P = 1 handle over the database.
func openChurnHandle(tb testing.TB, users, half int) (Handle, [][]instance.Op, [][]instance.Op) {
	tb.Helper()
	w := workload.NewSharded(8)
	db := w.Generate(users, 4, 1)
	ins, dels := churnCycle(w, db, half, 256, 2)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := sys.Open(db)
	if err != nil {
		tb.Fatal(err)
	}
	return h, ins, dels
}

// BenchmarkLive_ApplyDeltaSweep is the write path's scale-freedom sweep:
// the same 256-op churn batches (64 of them, then their inverses, cycled)
// through an in-memory P = 1 handle at three database sizes (31k, 125k
// and 500k rows), timed from the first batch after Open. Per-batch time
// and B/op should stay near flat across the 16x size range: batch
// maintenance costs O(|Δ|) plus a log-depth term, not O(|V|) or O(|D|).
func BenchmarkLive_ApplyDeltaSweep(b *testing.B) {
	for _, users := range []int{6250, 25000, 100000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			h, ins, dels := openChurnHandle(b, users, 64)
			defer h.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % len(ins)
				if _, err := h.ApplyDelta(ins[p], dels[p]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
