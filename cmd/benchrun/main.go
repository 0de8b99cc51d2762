// Command benchrun regenerates the experiment tables of EXPERIMENTS.md:
// every table/figure of the paper plus its quantitative claims, printed as
// markdown. Run with -exp to select one experiment:
//
//	benchrun -exp t1    Table I: decision procedures vs ground truth
//	benchrun -exp f1    Figure 1: plan ξ0 (bound, correctness, speedup)
//	benchrun -exp f3    Figure 3: the 13-node plan for q3
//	benchrun -exp cdr   Section 5.1: CDR speedup table
//	benchrun -exp gs    Introduction: Graph Search scale independence
//	benchrun -exp pct   Introduction: coverage of random CQs
//	benchrun -exp ex33  Example 3.3: bounded output of views
//	benchrun -exp ex63  Example 6.3: FO vs UCQ separation
//	benchrun -exp churn live updates: incremental maintenance vs full refresh
//	benchrun -exp planpick cost-based selection over the full candidate frontier
//	benchrun -exp shard sharded scatter-gather: partitioned maintenance + serving scaling
//	benchrun -exp epoch epoch-pinned reads: reader tail latency under a churning writer
//	benchrun -exp recover durable restart: checkpoint+replay recovery vs cold rebuild
//	benchrun -exp churnmem bounded memory: steady-state heap under sustained swap churn
//	benchrun -exp feedback closed-loop selection: observed-cost re-ranking vs open loop
//	benchrun -exp obs   observability overhead: instrumented vs bare epoch readers
//	benchrun -exp all   everything (default)
//
// With -json FILE, per-experiment wall-clock timings and the individual
// plan-vs-scan measurements are additionally written to FILE as JSON, for
// the machine-readable perf trajectory (BENCH_*.json) tracked by CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"

	"repro/internal/access"
	"repro/internal/boundedness"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/gadgets"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
	"repro/internal/vbrp"
	"repro/internal/workload"
)

// expTiming is the wall-clock of one whole experiment.
type expTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// measurement is one plan-vs-scan data point inside an experiment.
type measurement struct {
	Experiment      string  `json:"experiment"`
	Name            string  `json:"name"`
	DBSize          int     `json:"db_size,omitempty"`
	PlanNS          int64   `json:"plan_ns,omitempty"`
	ScanNS          int64   `json:"scan_ns,omitempty"`
	Fetched         int     `json:"fetched_tuples,omitempty"`
	Rows            int     `json:"rows,omitempty"`
	BatchOps        int     `json:"batch_ops,omitempty"`         // churn: ops per applied batch
	MaintainNS      int64   `json:"maintain_ns,omitempty"`       // churn: incremental maintenance per batch
	RefreshNS       int64   `json:"refresh_ns,omitempty"`        // churn: full refresh (materialize+indexes+prepare)
	Speedup         float64 `json:"speedup,omitempty"`           // churn: refresh_ns / maintain_ns; planpick: worst/chosen gap; shard: throughput vs 1 shard
	Candidates      int     `json:"candidates,omitempty"`        // planpick: enumerated candidate plans
	CacheHit        bool    `json:"cache_hit,omitempty"`         // planpick: renamed re-Prepare hit the cache; rebind ran no search
	P50NS           int64   `json:"p50_ns,omitempty"`            // epoch: median reader latency
	P99NS           int64   `json:"p99_ns,omitempty"`            // epoch: tail reader latency
	Batches         int     `json:"batches,omitempty"`           // epoch: writer batches applied while sampling
	Shards          int     `json:"shards,omitempty"`            // shard: partition count of this run
	OpsPerSec       float64 `json:"ops_per_sec,omitempty"`       // shard: delta ops applied per second
	QPS             float64 `json:"qps,omitempty"`               // shard: point queries served per second under churn
	MaxExclusiveNS  int64   `json:"max_exclusive_ns,omitempty"`  // shard: longest single-lock exclusive window per batch
	ExclCut         float64 `json:"excl_window_cut,omitempty"`   // shard: exclusive-window reduction vs 1 shard
	RecoverNS       int64   `json:"recover_ns,omitempty"`        // recover: open-to-serving wall clock of this path
	ReplayedEpochs  int     `json:"replayed_epochs,omitempty"`   // recover: journal records replayed
	ReplayedOps     int     `json:"replayed_ops,omitempty"`      // recover: physical ops those records carried
	HeapFloorBytes  int64   `json:"heap_floor_bytes,omitempty"`  // churnmem: live heap after warmup
	HeapSteadyBytes int64   `json:"heap_steady_bytes,omitempty"` // churnmem: max live heap over the run
	HeapRatio       float64 `json:"heap_ratio,omitempty"`        // churnmem: steady / floor (gated <= 1.5)
	Reclaimed       int64   `json:"reclaimed_epochs,omitempty"`  // churnmem: epochs whose last pin dropped
	OpenLoopFetch   int     `json:"open_loop_fetched,omitempty"` // feedback: per-exec fetch of the estimate-pinned plan
	ConvergedAt     int     `json:"converged_at,omitempty"`      // feedback: executions until the 1.2x bound held
	Switches        int64   `json:"plan_switches,omitempty"`     // feedback: incumbent changes over the whole run
	Explorations    int64   `json:"explorations,omitempty"`      // feedback: runner-up probe executions
}

// benchSchemaVersion identifies the BENCH_*.json document layout, so
// the trajectory tooling can tell a field rename from a regression.
// Bump whenever a field changes name or meaning.
const benchSchemaVersion = 2

// gateSpec is one pass/fail threshold an experiment enforces: the run
// aborts (log.Fatalf) when the measured value lands on the wrong side
// of Threshold. Stamped into the -json report so a BENCH_*.json is
// self-describing — the recorded numbers carry the bounds they were
// accepted under.
type gateSpec struct {
	Experiment string  `json:"experiment"`
	Name       string  `json:"name"`
	Op         string  `json:"op"` // measured-value comparison: ">=", "<=", "=="
	Threshold  float64 `json:"threshold"`
	Detail     string  `json:"detail"`
}

// gateSpecs are the per-experiment gates, keyed by experiment id; run()
// stamps the entries of every executed experiment into the report.
var gateSpecs = map[string][]gateSpec{
	"churn": {
		{Name: "fetch_bound", Op: "<=", Threshold: 2, Detail: "realized fetches per execution <= 2*N0 across every churn step"},
	},
	"shard": {
		{Name: "delta_throughput_8x", Op: ">=", Threshold: 2.0, Detail: "8-shard delta throughput vs 1 shard (needs GOMAXPROCS >= 4)"},
		{Name: "serve_throughput_8x", Op: ">=", Threshold: 0.6, Detail: "8-shard serving throughput vs 1 shard, no-regression bound"},
	},
	"epoch": {
		{Name: "churn_p99_vs_idle", Op: "<=", Threshold: 3.0, Detail: "reader p99 under churn vs max(idle p99, 250us) (needs GOMAXPROCS >= 2)"},
	},
	"recover": {
		{Name: "checkpoint_vs_cold", Op: ">=", Threshold: 10, Detail: "checkpointed restart speedup over cold rebuild"},
		{Name: "replay_vs_cold", Op: ">=", Threshold: 1.5, Detail: "log-replay recovery speedup over cold rebuild"},
	},
	"churnmem": {
		{Name: "heap_ratio", Op: "<=", Threshold: 1.5, Detail: "max post-warmup live heap vs warmup floor"},
	},
	"feedback": {
		{Name: "converged_fetch", Op: "<=", Threshold: 1.2, Detail: "closed-loop per-exec fetches vs best candidate after convergence"},
	},
	"obs": {
		{Name: "instrumented_throughput", Op: ">=", Threshold: 0.95, Detail: "epoch-reader throughput with metrics on vs WithoutMetrics"},
		{Name: "trace_fetch_delta", Op: "==", Threshold: 0, Detail: "slow-trace per-constraint rows minus the pinned snapshot's exact fetch count"},
	},
}

// report is the -json output document.
type report struct {
	SchemaVersion int           `json:"schema_version"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	Experiments   []expTiming   `json:"experiments"`
	Gates         []gateSpec    `json:"gates"`
	Measurements  []measurement `json:"measurements"`
}

var rep report

// record appends one measurement to the -json report.
func record(m measurement) { rep.Measurements = append(rep.Measurements, m) }

func main() {
	exp := flag.String("exp", "all", "experiment id (t1, f1, f3, cdr, gs, pct, ex33, ex63, churn, planpick, shard, epoch, recover, churnmem, feedback, obs, all)")
	jsonPath := flag.String("json", "", "write per-experiment timings as JSON to this file")
	flag.Parse()
	rep.SchemaVersion = benchSchemaVersion
	rep.Experiments = []expTiming{}
	rep.Gates = []gateSpec{}
	rep.Measurements = []measurement{}
	matched := false
	run := func(id string, f func()) {
		if *exp == "all" || *exp == id {
			matched = true
			t0 := time.Now()
			f()
			rep.Experiments = append(rep.Experiments, expTiming{ID: id, Seconds: time.Since(t0).Seconds()})
			for _, g := range gateSpecs[id] {
				g.Experiment = id
				rep.Gates = append(rep.Gates, g)
			}
		}
	}
	run("t1", expT1)
	run("f1", expF1)
	run("f3", expF3)
	run("cdr", expCDR)
	run("gs", expGS)
	run("pct", expPct)
	run("ex33", expEx33)
	run("ex63", expEx63)
	run("churn", expChurn)
	run("planpick", expPlanPick)
	run("shard", expShard)
	run("epoch", expEpoch)
	run("recover", expRecover)
	run("churnmem", expChurnMem)
	run("feedback", expFeedback)
	run("obs", expObs)
	if !matched {
		log.Fatalf("unknown experiment %q (want t1, f1, f3, cdr, gs, pct, ex33, ex63, churn, planpick, shard, epoch, recover, churnmem, feedback, obs or all)", *exp)
	}
	if *jsonPath != "" {
		rep.GoMaxProcs = runtime.GOMAXPROCS(0)
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
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
	fmt.Println("| |D| | ξ0 answers | fetched (≤ 2·N0 = 100) | ξ0 time | direct scan | speedup |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, size := range []int{1000, 10000, 100000} {
		db := m.Generate(workload.MoviesParams{Persons: size, Movies: size, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
		views, err := eval.Materialize(m.Views(), db)
		if err != nil {
			log.Fatal(err)
		}
		ix, err := instance.BuildIndexes(db, m.Access)
		if err != nil {
			log.Fatal(err)
		}
		pv := plan.PrepareViews(ix, views)
		t0 := time.Now()
		rows, err := plan.RunOn(xi0, ix, pv)
		if err != nil {
			log.Fatal(err)
		}
		pt := time.Since(t0)
		t0 = time.Now()
		direct, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatal("ξ0(D) != Q0(D)")
		}
		record(measurement{Experiment: "f1", Name: "xi0", DBSize: db.Size(),
			PlanNS: int64(pt), ScanNS: int64(dt), Fetched: ix.FetchedTuples(), Rows: len(rows)})
		fmt.Printf("| %d | %d | %d | %s | %s | %.0fx |\n",
			db.Size(), len(rows), ix.FetchedTuples(), pt.Round(time.Microsecond), dt.Round(time.Microsecond),
			float64(dt)/float64(pt))
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
	for _, customers := range []int{2000, 20000, 100000} {
		db := c.Generate(workload.CDRParams{Customers: customers, Days: 30, Seed: 1})
		ix, err := instance.BuildIndexes(db, c.Access)
		if err != nil {
			log.Fatal(err)
		}
		src := &eval.Source{DB: db}
		fmt.Printf("\n|D| = %d tuples (%d customers)\n\n", db.Size(), customers)
		fmt.Println("| query | plan time | full scan | speedup | fetched tuples |")
		fmt.Println("|---|---|---|---|---|")
		for _, q := range queries {
			p, ok := plans[q.Name]
			if !ok {
				fmt.Printf("| %s | — | — | not bounded | — |\n", q.Name)
				continue
			}
			ix.ResetCounters()
			t0 := time.Now()
			rows, err := plan.Run(p, ix, nil)
			if err != nil {
				log.Fatal(err)
			}
			pt := time.Since(t0)
			t0 = time.Now()
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
			record(measurement{Experiment: "cdr", Name: q.Name, DBSize: db.Size(),
				PlanNS: int64(pt), ScanNS: int64(dt), Fetched: ix.FetchedTuples(), Rows: len(rows)})
			fmt.Printf("| %s | %s | %s | %.0fx | %d |\n",
				q.Name, pt.Round(time.Microsecond), dt.Round(time.Microsecond),
				float64(dt)/float64(pt), ix.FetchedTuples())
		}
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
	fmt.Println("| |D| | fetched | plan time | full scan | speedup |")
	fmt.Println("|---|---|---|---|---|")
	for _, persons := range []int{5000, 50000, 200000} {
		db := so.Generate(workload.SocialParams{Persons: persons, Restaurants: 500, Dates: 28, Seed: 3})
		ix, err := instance.BuildIndexes(db, so.Access)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		rows, err := plan.Run(res.Plan, ix, nil)
		if err != nil {
			log.Fatal(err)
		}
		pt := time.Since(t0)
		t0 = time.Now()
		direct, err := eval.FOOnDB(q, &eval.Source{DB: db})
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatal("plan/scan disagree")
		}
		record(measurement{Experiment: "gs", Name: "graph-search", DBSize: db.Size(),
			PlanNS: int64(pt), ScanNS: int64(dt), Fetched: ix.FetchedTuples(), Rows: len(rows)})
		fmt.Printf("| %d | %d | %s | %s | %.0fx |\n",
			db.Size(), ix.FetchedTuples(), pt.Round(time.Microsecond), dt.Round(time.Microsecond),
			float64(dt)/float64(pt))
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

// expChurn measures the live-update subsystem: sustained churn (batches of
// 1% of |D|, 40% deletes) applied through a Live handle, with per-batch
// incremental maintenance compared against a full refresh (re-materialize
// the views, rebuild the fetch indices, re-intern the plan inputs), and
// bounded-plan latency measured while D churns. The paper's
// scale-independence claim extends to updates exactly when the incremental
// path's cost tracks the delta, not |D|.
func expChurn() {
	header("EXP-CHURN — live updates: incremental maintenance vs full refresh, plan latency under churn")
	fmt.Println("| |D| | batch (1%) | apply/batch | full refresh | speedup | plan before | plan after | fetched ≤ 2·N0 |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	const batches = 25
	for _, n := range []int{1250, 12500, 50000} {
		m := workload.NewMovies(50)
		db := m.Generate(workload.MoviesParams{Persons: n, Movies: n, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
		size0 := db.Size()
		sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
		if err != nil {
			log.Fatal(err)
		}

		// Full refresh cost at this size: what every deletion used to pay.
		t0 := time.Now()
		views, err := eval.Materialize(m.Views(), db)
		if err != nil {
			log.Fatal(err)
		}
		ixFresh, err := instance.BuildIndexes(db, m.Access)
		if err != nil {
			log.Fatal(err)
		}
		plan.PrepareViews(ixFresh, views)
		refresh := time.Since(t0)

		l, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		xi0 := m.Fig1Plan()
		t0 = time.Now()
		_, fetched0, err := l.Execute(xi0)
		if err != nil {
			log.Fatal(err)
		}
		planBefore := time.Since(t0)

		ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: 1})
		batch := size0 / 100
		// Warm-up batch: pays the one-time lazy builds (table position
		// indexes) that steady-state serving amortizes away.
		ins, del := ch.Batch(batch)
		if _, err := l.ApplyDelta(ins, del); err != nil {
			log.Fatal(err)
		}
		t0 = time.Now()
		for b := 0; b < batches; b++ {
			ins, del := ch.Batch(batch)
			if _, err := l.ApplyDelta(ins, del); err != nil {
				log.Fatal(err)
			}
		}
		perBatch := time.Since(t0) / batches

		t0 = time.Now()
		rows, fetched1, err := l.Execute(xi0)
		if err != nil {
			log.Fatal(err)
		}
		planAfter := time.Since(t0)
		if fetched0 > 2*m.N0 || fetched1 > 2*m.N0 {
			log.Fatalf("fetch bound violated under churn: %d / %d > %d", fetched0, fetched1, 2*m.N0)
		}
		// Cross-check: the live answers equal full recomputation.
		direct, err := eval.CQOnDB(m.Q0, &eval.Source{DB: db})
		if err != nil {
			log.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			log.Fatal("live plan answers diverge from recomputation after churn")
		}

		speedup := float64(refresh) / float64(perBatch)
		record(measurement{Experiment: "churn", Name: "batch-1pct", DBSize: size0,
			BatchOps: batch, MaintainNS: int64(perBatch), RefreshNS: int64(refresh), Speedup: speedup})
		record(measurement{Experiment: "churn", Name: "plan-latency", DBSize: l.Size(),
			PlanNS: int64(planAfter), Fetched: fetched1, Rows: len(rows)})
		fmt.Printf("| %d | %d ops | %s | %s | %.0fx | %s | %s | %d/%d |\n",
			size0, batch, perBatch.Round(time.Microsecond), refresh.Round(time.Microsecond), speedup,
			planBefore.Round(time.Microsecond), planAfter.Round(time.Microsecond), fetched1, 2*m.N0)
	}
	fmt.Println("\n(Incremental cost tracks the delta, not |D|: the speedup over full refresh")
	fmt.Println("widens as D grows — the live extension of the scale-independence claim.)")
}

// expPlanPick measures cost-based plan selection over the full VBRP
// candidate frontier: every enumerated bounded plan answers the query, but
// their realized fetch volumes differ by orders of magnitude, and the gap
// between the cost-picked and the worst candidate widens with |D|. It also
// demonstrates the prepared-query caches: a renamed, reordered — but
// equivalent — query re-Prepares without a second VBRP search, and so
// does the query with another constant bound in place of "k".
func expPlanPick() {
	header("EXP-PLANPICK — cost-based selection over the full candidate frontier")
	pp := workload.NewPlanPick(5, 100_000)
	sys, err := repro.NewSystem(pp.Schema, pp.Access, pp.Views(), pp.M)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("| |D| | candidates | chosen fetch | worst fetch | fetch gap | chosen time | worst time |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var lastDB *repro.Database
	var last repro.Handle
	for _, rows := range []int{500, 5000, 50000} {
		db := pp.Generate(rows, 4, 7)
		l, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		lastDB, last = db, l
		pq, err := sys.Prepare(cq.NewUCQ(pp.Q), plan.LangCQ)
		if err != nil {
			log.Fatal(err)
		}
		direct, err := sys.EvalDirect(cq.NewUCQ(pp.Q), db)
		if err != nil {
			log.Fatal(err)
		}
		worstFetch, worstNS := -1, int64(0)
		for _, c := range pq.Candidates() {
			t0 := time.Now()
			crows, fetched, err := l.Execute(c)
			if err != nil {
				log.Fatal(err)
			}
			dt := int64(time.Since(t0))
			if !cq.RowsEqual(crows, direct) {
				log.Fatalf("candidate plan disagrees with direct evaluation:\n%s", plan.Render(c))
			}
			if fetched > worstFetch {
				worstFetch, worstNS = fetched, dt
			}
		}
		t0 := time.Now()
		arows, chosenFetch, err := pq.Execute(l)
		if err != nil {
			log.Fatal(err)
		}
		chosenNS := int64(time.Since(t0))
		if !cq.RowsEqual(arows, direct) {
			log.Fatal("chosen plan disagrees with direct evaluation")
		}
		gap := float64(worstFetch) / float64(max(1, chosenFetch))
		if gap < 2 {
			log.Fatalf("cost selection regressed: chosen plan fetches %d, worst %d (gap %.1fx < 2x)",
				chosenFetch, worstFetch, gap)
		}
		record(measurement{Experiment: "planpick", Name: "chosen", DBSize: db.Size(),
			PlanNS: chosenNS, Fetched: chosenFetch, Rows: len(arows), Candidates: len(pq.Candidates())})
		record(measurement{Experiment: "planpick", Name: "worst", DBSize: db.Size(),
			PlanNS: worstNS, Fetched: worstFetch, Speedup: gap})
		fmt.Printf("| %d | %d | %d | %d | %.0fx | %s | %s |\n",
			db.Size(), len(pq.Candidates()), chosenFetch, worstFetch, gap,
			time.Duration(chosenNS).Round(time.Microsecond), time.Duration(worstNS).Round(time.Microsecond))
	}

	// Prepared-query cache: a renamed + reordered (but equivalent) query
	// must be served from the cache, with no second exponential search.
	searches0, _, _ := sys.PrepareCacheStats()
	renamed := cq.NewCQ([]cq.Term{cq.Var("out")}, []cq.Atom{
		cq.NewAtom("R", cq.Cst("k"), cq.Var("out")),
	})
	renamed.Name = "Qren"
	pq2, err := sys.Prepare(cq.NewUCQ(renamed), plan.LangCQ)
	if err != nil {
		log.Fatal(err)
	}
	searches1, hits, _ := sys.PrepareCacheStats()
	hit := searches1 == searches0 && hits > 0
	record(measurement{Experiment: "planpick", Name: "renamed-prepare", CacheHit: hit})
	fmt.Printf("\nrenamed query re-Prepare: cache hit = %v (searches %d -> %d, hits %d); key: %s\n",
		hit, searches0, searches1, hits, pq2.Key())
	if !hit {
		log.Fatal("renamed-but-equivalent query missed the prepared-query cache")
	}

	// Template rebind: R("k2", b) differs from the query only in a
	// constant no view mentions, so it binds the cached template — no
	// search — and must still answer exactly like direct evaluation.
	rebound := cq.NewUCQ(cq.NewCQ([]cq.Term{cq.Var("b")}, []cq.Atom{
		cq.NewAtom("R", cq.Cst("k2"), cq.Var("b")),
	}))
	pq3, err := sys.Prepare(rebound, plan.LangCQ)
	if err != nil {
		log.Fatal(err)
	}
	searches2, _, _ := sys.PrepareCacheStats()
	rrows, rfetched, err := pq3.Execute(last)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := sys.EvalDirect(rebound, lastDB)
	if err != nil {
		log.Fatal(err)
	}
	bound := searches2 == searches1
	record(measurement{Experiment: "planpick", Name: "rebind-prepare", DBSize: lastDB.Size(),
		Fetched: rfetched, Rows: len(rrows), CacheHit: bound})
	fmt.Printf("rebound query R(\"k2\", b) Prepare: template reused = %v (searches %d -> %d); %d rows, %d fetched\n",
		bound, searches1, searches2, len(rrows), rfetched)
	if !bound {
		log.Fatal("rebinding a constant of the prepared query ran a second search")
	}
	if !cq.RowsEqual(rrows, direct) {
		log.Fatalf("rebound query disagrees with direct evaluation: %v vs %v", rrows, direct)
	}
}

// expShard measures the sharded scatter-gather subsystem on the
// account/transaction fixture at P = 1, 2, 4, 8 shards:
//
//   - batched-delta throughput: churn batches routed per shard and
//     maintained concurrently (database, fetch indices, co-partitioned
//     view partitions — VPairs makes every txn op real join work).
//   - point-read serving under churn: prepared per-uid queries whose
//     bounded plans route to a single shard, executed by concurrent
//     readers while a writer applies large batches back-to-back. Besides
//     raw throughput, the per-batch maintenance window is tracked: epoch
//     publication means readers never block on it, but it bounds how far
//     the served epoch can lag the writer, and partitioning shrinks it
//     from the whole batch to one shard's slice — the architectural
//     signal, visible at any GOMAXPROCS.
//
// The delta-throughput ratio is a parallel scatter: it needs actual
// cores. With GOMAXPROCS >= 4 (CI and any real deployment) the run FAILS
// unless 8-shard delta throughput is >= 2x the single-shard baseline;
// the window-reduction gate applies everywhere. Serving throughput is
// gated as a NO-REGRESSION bound (8 shards >= 0.6x of 1 shard): under
// epoch-pinned reads serving is lock-free at every shard count, so the
// old >= 2x spread — which existed only because the RWMutex baseline
// stalled single-shard readers behind the writer — is gone by design
// (the epoch experiment gates the latency story directly).
//
// Scale independence is asserted throughout: per-query fetch volume is
// bounded by NTxn and identical at every shard count.
func expShard() {
	header("EXP-SHARD — sharded scatter-gather: partitioned maintenance and point-read serving")
	const (
		users      = 25_000
		txnsPer    = 4
		nTxn       = 8
		batchOps   = 2_000
		batches    = 16
		serveMs    = 900
		readers    = 4
		queryPool  = 24
		writeBatch = 16_000
	)
	w := workload.NewSharded(nTxn)
	sys, err := repro.NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		log.Fatal(err)
	}
	// One prepared handle per pooled uid; the VBRP search runs once per
	// uid and is shared by every shard count (planpick-style traffic).
	pqs := make([]*repro.PreparedQuery, queryPool)
	for i := range pqs {
		pq, err := sys.Prepare(cq.NewUCQ(w.Query(w.UID(i*97))), plan.LangCQ)
		if err != nil {
			log.Fatal(err)
		}
		pqs[i] = pq
	}

	fmt.Printf("|D| = %d tuples, delta batches of %d ops, %d readers vs %d-op writer batches, GOMAXPROCS=%d\n\n",
		users*(1+txnsPer), batchOps, readers, writeBatch, runtime.GOMAXPROCS(0))
	fmt.Println("| shards | delta ops/s | vs 1 shard | maint window (med) | window cut | serve q/s | vs 1 shard | fetched/query |")
	fmt.Println("|---|---|---|---|---|---|---|---|")

	var deltaBase, serveBase float64
	var exclBase time.Duration
	var deltaRatio, serveRatio, exclRatio float64
	for _, p := range []int{1, 2, 4, 8} {
		db := w.Generate(users, txnsPer, 7)
		mirror := db.Clone()
		h, err := sys.Open(db, repro.WithShards(p))
		if err != nil {
			log.Fatal(err)
		}
		sl := h.(*repro.Live)
		ch := w.NewChurn(mirror, 11)

		// Correctness preflight: served answers equal recomputation and
		// the fetch volume is bounded and shard-count-independent.
		fetchedPerQuery := 0
		for i, pq := range pqs {
			rows, fetched, err := pq.Execute(sl)
			if err != nil {
				log.Fatal(err)
			}
			if fetched > nTxn {
				log.Fatalf("P=%d: fetched %d > NTxn=%d — bounded plan lost its bound", p, fetched, nTxn)
			}
			fetchedPerQuery += fetched
			if i%6 == 0 {
				direct, err := sys.EvalDirect(cq.NewUCQ(w.Query(w.UID(i*97))), mirror)
				if err != nil {
					log.Fatal(err)
				}
				if !cq.RowsEqual(rows, direct) {
					log.Fatalf("P=%d: sharded answers diverge from recomputation", p)
				}
			}
		}

		// Phase A: batched-delta throughput (warm-up batch pays the lazy
		// one-time builds, mirroring the churn experiment).
		ins, del := ch.Batch(batchOps)
		if _, err := sl.ApplyDelta(ins, del); err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		applied := 0
		excls := make([]time.Duration, 0, batches)
		t0 := time.Now()
		for b := 0; b < batches; b++ {
			ins, del := ch.Batch(batchOps)
			st, err := sl.ApplyDelta(ins, del)
			if err != nil {
				log.Fatal(err)
			}
			excls = append(excls, st.MaxExclusive)
			applied += len(ins) + len(del)
		}
		opsPerSec := float64(applied) / time.Since(t0).Seconds()
		// Median across batches: the typical window, robust against a
		// GC pause landing inside one shard's section.
		sort.Slice(excls, func(i, j int) bool { return excls[i] < excls[j] })
		excl := excls[len(excls)/2]

		// Phase B: point-read serving while a writer churns back-to-back.
		runtime.GC()
		var served atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := pqs[(r*5+i)%len(pqs)].Execute(sl); err != nil {
						log.Fatal(err)
					}
					served.Add(1)
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ins, del := ch.Batch(writeBatch)
				if _, err := sl.ApplyDelta(ins, del); err != nil {
					log.Fatal(err)
				}
			}
		}()
		t0 = time.Now()
		time.Sleep(serveMs * time.Millisecond)
		// Wall stops when the readers do: the writer's in-flight batch
		// drains after close(stop) and must not pad the qps denominator
		// (it drains faster at higher shard counts, which would bias the
		// gated 8-vs-1 ratio).
		wall := time.Since(t0).Seconds()
		close(stop)
		wg.Wait()
		qps := float64(served.Load()) / wall

		if p == 1 {
			deltaBase, serveBase, exclBase = opsPerSec, qps, excl
		}
		dR, sR := opsPerSec/deltaBase, qps/serveBase
		eR := float64(exclBase) / float64(excl)
		if p == 8 {
			deltaRatio, serveRatio, exclRatio = dR, sR, eR
		}
		record(measurement{Experiment: "shard", Name: "deltas", Shards: p,
			DBSize: users * (1 + txnsPer), BatchOps: batchOps, OpsPerSec: opsPerSec,
			MaxExclusiveNS: int64(excl), ExclCut: eR, Speedup: dR})
		record(measurement{Experiment: "shard", Name: "serving", Shards: p,
			DBSize: users * (1 + txnsPer), QPS: qps, Speedup: sR,
			Fetched: fetchedPerQuery / len(pqs)})
		fmt.Printf("| %d | %.0f | %.2fx | %s | %.1fx | %.0f | %.2fx | %d |\n",
			p, opsPerSec, dR, excl.Round(time.Microsecond), eR, qps, sR, fetchedPerQuery/len(pqs))
	}

	fmt.Println("\n(The maintenance window is the longest single-shard slice of a batch's")
	fmt.Println("maintenance. Under epoch reads it blocks nobody — readers stay on the")
	fmt.Println("previous epoch, see -exp epoch for the latency proof — but it bounds the")
	fmt.Println("batch's publication lag and shrinks ~P-fold at any GOMAXPROCS. The")
	fmt.Println("wall-clock delta and serving ratios are a parallel scatter: they need")
	fmt.Println("cores, and are gated when GOMAXPROCS >= 4.)")
	if exclRatio < 2 {
		log.Fatalf("per-shard maintenance window at 8 shards shrank only %.2fx vs the single-shard baseline (< 2x)", exclRatio)
	}
	if runtime.GOMAXPROCS(0) >= 4 {
		if deltaRatio < 2 {
			log.Fatalf("delta throughput at 8 shards is %.2fx the single-shard baseline (< 2x with %d procs)",
				deltaRatio, runtime.GOMAXPROCS(0))
		}
		if serveRatio < 0.6 {
			log.Fatalf("serving throughput at 8 shards regressed to %.2fx the single-shard baseline (< 0.6x with %d procs)",
				serveRatio, runtime.GOMAXPROCS(0))
		}
	} else {
		fmt.Printf("\n(GOMAXPROCS=%d: the parallel-scatter throughput gates need >= 4 procs and were\n", runtime.GOMAXPROCS(0))
		fmt.Println("skipped; the maintenance-window gate above ran and is the single-core signal.)")
	}
}

// expEpoch measures what the epoch redesign buys readers: plan latency
// while a writer applies churn batches back-to-back. Under the old
// RWMutex design a read colliding with a batch stalled for up to the
// whole maintenance window (milliseconds at this size — the unbounded
// tail); under epoch-pinned snapshots a reader loads the current epoch
// pointer and never blocks, so its tail latency under churn must stay
// within a small factor of the idle tail.
//
// Gate (GOMAXPROCS >= 2: the reader needs a core the writer is not
// using): reader p99 under churn <= 3x max(idle p99, 250µs). The floor
// absorbs microsecond-scale scheduler noise; an RWMutex-style stall of
// even one maintenance window per 100 reads blows the gate by an order
// of magnitude.
func expEpoch() {
	header("EXP-EPOCH — epoch-pinned snapshot reads: reader latency under a churning writer")
	const (
		n        = 8000
		samples  = 4000
		batchOps = 1500
	)
	m := workload.NewMovies(50)
	db := m.Generate(workload.MoviesParams{Persons: n, Movies: n, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
	size0 := db.Size()
	sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
	if err != nil {
		log.Fatal(err)
	}
	l, err := sys.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	xi0 := m.Fig1Plan()
	ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: 1})
	// Warm-up: lazy one-time builds plus one batch so steady state rules.
	ins, del := ch.Batch(batchOps)
	if _, err := l.ApplyDelta(ins, del); err != nil {
		log.Fatal(err)
	}
	if _, _, err := l.Execute(xi0); err != nil {
		log.Fatal(err)
	}

	sample := func() []time.Duration {
		lat := make([]time.Duration, samples)
		for i := range lat {
			t0 := time.Now()
			if _, _, err := l.Execute(xi0); err != nil {
				log.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}
	pct := func(lat []time.Duration, p float64) time.Duration {
		return lat[min(len(lat)-1, int(p*float64(len(lat))))]
	}

	runtime.GC()
	idle := sample()
	idleP50, idleP99 := pct(idle, 0.50), pct(idle, 0.99)

	// Churn phase: a writer applies batches back-to-back while the same
	// reader samples.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var batches atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ins, del := ch.Batch(batchOps)
			if _, err := l.ApplyDelta(ins, del); err != nil {
				log.Fatal(err)
			}
			batches.Add(1)
		}
	}()
	runtime.GC()
	churn := sample()
	close(stop)
	wg.Wait()
	churnP50, churnP99 := pct(churn, 0.50), pct(churn, 0.99)

	record(measurement{Experiment: "epoch", Name: "idle", DBSize: size0,
		P50NS: int64(idleP50), P99NS: int64(idleP99)})
	record(measurement{Experiment: "epoch", Name: "churn", DBSize: size0,
		P50NS: int64(churnP50), P99NS: int64(churnP99), BatchOps: batchOps, Batches: int(batches.Load())})

	fmt.Printf("|D| = %d tuples, %d latency samples per phase, churn batches of %d ops (%d applied while sampling), GOMAXPROCS=%d\n\n",
		size0, samples, batchOps, batches.Load(), runtime.GOMAXPROCS(0))
	fmt.Println("| phase | reader p50 | reader p99 |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| idle | %s | %s |\n", idleP50.Round(time.Microsecond), idleP99.Round(time.Microsecond))
	fmt.Printf("| under churn | %s | %s |\n", churnP50.Round(time.Microsecond), churnP99.Round(time.Microsecond))

	floor := 250 * time.Microsecond
	bound := 3 * max(idleP99, floor)
	fmt.Printf("\ngate: churn p99 %s <= 3 x max(idle p99, %s) = %s\n",
		churnP99.Round(time.Microsecond), floor, bound.Round(time.Microsecond))
	fmt.Println("(readers load an atomic epoch pointer and never take a lock ApplyDelta")
	fmt.Println("holds; the RWMutex baseline stalled reads for whole maintenance windows.)")
	if runtime.GOMAXPROCS(0) >= 2 {
		if batches.Load() == 0 {
			log.Fatal("the churn writer applied no batches while sampling — the gate measured nothing")
		}
		if churnP99 > bound {
			log.Fatalf("reader p99 under churn %s exceeds %s — epoch reads are stalling behind the writer",
				churnP99, bound)
		}
	} else {
		fmt.Println("\n(GOMAXPROCS=1: the latency gate needs the reader and writer on separate procs; skipped.)")
	}
}

// expRecover measures what the WAL + checkpoint subsystem buys a restart:
// the time from process start (well, from sys.Open) to a serving handle,
// three ways over the SAME final state.
//
//   - cold rebuild: no durability — re-enumerate every view from the base
//     tables, rebuild indexes, recollect statistics (the pre-PR6 restart).
//   - log replay: recover a directory whose handle was never cleanly
//     closed — load the small opening checkpoint, replay the whole
//     journal through the incremental maintenance path.
//   - checkpointed restart: recover a directory that checkpointed
//     periodically and closed cleanly — load the newest checkpoint, seed
//     the engine's extents directly, replay (almost) nothing.
//
// Gate: checkpointed restart must reach serving >= 10x faster than the
// cold rebuild (restart = load + seed instead of re-deriving the
// quadratic VPairs join), and log replay must also beat the cold rebuild
// — replaying the history incrementally is cheaper than recomputing the
// final state's views from scratch.
func expRecover() {
	header("EXP-RECOVER — durable restart: checkpoint+replay vs cold rebuild")
	const (
		users    = 400
		txnsPer  = 48
		batches  = 40
		batchOps = 12
		ckptInt  = 16
	)
	w := workload.NewRecovery(2 * txnsPer)
	sys, err := repro.NewSystem(w.Schema, w.Access, w.Views(), 8)
	if err != nil {
		log.Fatal(err)
	}
	db := w.Generate(users, txnsPer, 17)
	size0 := db.Size()

	dirReplay, err := os.MkdirTemp("", "recover-replay-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirReplay)
	dirCkpt, err := os.MkdirTemp("", "recover-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirCkpt)

	// Drive the identical deterministic stream into both durable dirs and
	// a plain database that becomes the cold-rebuild input.
	hReplay, err := sys.Open(db.Clone(), repro.WithDurability(dirReplay), repro.WithCheckpointEvery(0))
	if err != nil {
		log.Fatal(err)
	}
	hCkpt, err := sys.Open(db.Clone(), repro.WithDurability(dirCkpt), repro.WithCheckpointEvery(ckptInt))
	if err != nil {
		log.Fatal(err)
	}
	final := db.Clone()
	ch := w.NewChurn(db, 5)
	ops := 0
	for b := 0; b < batches; b++ {
		ins, del := ch.Batch(batchOps)
		ops += len(ins) + len(del)
		if _, err := hReplay.ApplyDelta(ins, del); err != nil {
			log.Fatal(err)
		}
		if _, err := hCkpt.ApplyDelta(ins, del); err != nil {
			log.Fatal(err)
		}
		if _, err := final.ApplyDelta(ins, del); err != nil {
			log.Fatal(err)
		}
	}
	// hCkpt closes cleanly (final checkpoint); hReplay is abandoned as a
	// crash would leave it — every batch is in the journal, none folded.
	if err := hCkpt.Close(); err != nil {
		log.Fatal(err)
	}

	probe := func(h repro.Handle) {
		rows, err := h.Snapshot().Fetch(w.Acct, repro.Tuple{w.UID(3)})
		if err != nil || len(rows) == 0 {
			log.Fatalf("serving probe failed: %d rows, %v", len(rows), err)
		}
	}

	runtime.GC()
	t0 := time.Now()
	hCold, err := sys.Open(final)
	if err != nil {
		log.Fatal(err)
	}
	probe(hCold)
	coldNS := time.Since(t0)

	runtime.GC()
	t0 = time.Now()
	hR, err := sys.Open(repro.NewDatabase(sys.Schema), repro.WithDurability(dirReplay), repro.WithCheckpointEvery(0))
	if err != nil {
		log.Fatal(err)
	}
	probe(hR)
	replayNS := time.Since(t0)
	ri := hR.(*repro.Live).Recovery()
	if ri.ReplayedEpochs != batches {
		log.Fatalf("log-replay recovery replayed %d epochs, want %d", ri.ReplayedEpochs, batches)
	}

	runtime.GC()
	t0 = time.Now()
	hC, err := sys.Open(repro.NewDatabase(sys.Schema), repro.WithDurability(dirCkpt), repro.WithCheckpointEvery(ckptInt))
	if err != nil {
		log.Fatal(err)
	}
	probe(hC)
	ckptNS := time.Since(t0)
	ci := hC.(*repro.Live).Recovery()
	if ci.ReplayedEpochs != 0 {
		log.Fatalf("checkpointed recovery replayed %d epochs, want 0 after a clean close", ci.ReplayedEpochs)
	}

	// The three handles must agree — recovery that is fast but wrong is
	// worthless. Extent row order is not canonical (enumeration vs
	// incremental arrival), so compare sorted.
	canon := func(h repro.Handle) string {
		views := h.Views()
		names := make([]string, 0, len(views))
		for name := range views {
			names = append(names, name)
		}
		sort.Strings(names)
		var b []byte
		for _, name := range names {
			rows := make([]string, len(views[name]))
			for i, r := range views[name] {
				rows[i] = fmt.Sprint(r)
			}
			sort.Strings(rows)
			b = fmt.Appendf(b, "%s%v\n", name, rows)
		}
		return string(b)
	}
	coldViews := canon(hCold)
	if canon(hR) != coldViews {
		log.Fatal("log-replay recovery diverged from the cold rebuild")
	}
	if canon(hC) != coldViews {
		log.Fatal("checkpointed recovery diverged from the cold rebuild")
	}

	record(measurement{Experiment: "recover", Name: "cold", DBSize: final.Size(),
		RecoverNS: int64(coldNS), BatchOps: batchOps, Batches: batches})
	record(measurement{Experiment: "recover", Name: "log-replay", DBSize: final.Size(),
		RecoverNS: int64(replayNS), ReplayedEpochs: ri.ReplayedEpochs, ReplayedOps: ri.ReplayedOps,
		Speedup: float64(coldNS) / float64(replayNS)})
	record(measurement{Experiment: "recover", Name: "checkpointed", DBSize: final.Size(),
		RecoverNS: int64(ckptNS), ReplayedEpochs: ci.ReplayedEpochs, ReplayedOps: ci.ReplayedOps,
		Speedup: float64(coldNS) / float64(ckptNS)})

	replayRate := float64(ri.ReplayedOps) / replayNS.Seconds()
	fmt.Printf("|D0| = %d, |Dfinal| = %d, %d journaled batches of %d ops (%d physical)\n\n",
		size0, final.Size(), batches, batchOps, ops)
	fmt.Println("| restart path | to serving | vs cold |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| cold rebuild (re-enumerate views) | %s | 1.0x |\n", coldNS.Round(time.Microsecond))
	fmt.Printf("| log replay (%d epochs, %d ops) | %s | %.1fx |\n",
		ri.ReplayedEpochs, ri.ReplayedOps, replayNS.Round(time.Microsecond), float64(coldNS)/float64(replayNS))
	fmt.Printf("| checkpointed restart | %s | %.1fx |\n", ckptNS.Round(time.Microsecond), float64(coldNS)/float64(ckptNS))
	fmt.Printf("\nreplay throughput: %.0f ops/s; gate: checkpointed >= 10x cold, log replay >= 1.5x cold\n", replayRate)
	if got := float64(coldNS) / float64(ckptNS); got < 10 {
		log.Fatalf("checkpointed restart is only %.1fx faster than a cold rebuild (gate: >= 10x)", got)
	}
	if got := float64(coldNS) / float64(replayNS); got < 1.5 {
		log.Fatalf("log-replay recovery is only %.1fx faster than a cold rebuild (gate: >= 1.5x)", got)
	}
}

// liveHeap returns the live heap after forcing collection twice (the
// first cycle runs queued finalizers — the snapshot backstop among them —
// the second collects what they released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// expChurnMem measures steady-state memory under sustained bounded-domain
// churn: SwapChurn swaps rows in and out of a CLOSED universe (|D| and
// the dictionary plateau), every batch publishes an epoch, snapshots are
// taken and closed along the way — so any heap growth past the warmup
// floor is retained epoch state. The gate fails the run when the maximal
// post-warmup live heap exceeds 1.5x the floor: that is the bounded-memory
// property the epoch lifecycle layer (refcounted retention ring over
// copy-on-write epochs) exists to provide; before it, heap grew linearly
// with batches applied.
func expChurnMem() {
	header("EXP-CHURNMEM — bounded memory: steady-state heap under sustained swap churn")
	batches := 10000
	if s := os.Getenv("CHURNMEM_BATCHES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 200 {
			log.Fatalf("CHURNMEM_BATCHES must be an integer >= 200, got %q", s)
		}
		batches = n
	}
	const retain = 8
	configs := []struct {
		name    string
		shards  int
		batches int
	}{
		{"P=1", 1, batches},
		{"P=4", 4, batches / 4},
	}
	fmt.Println("| engine | batches | batch ops | heap floor | heap steady | ratio | reclaimed epochs |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, cfg := range configs {
		m := workload.NewMovies(50)
		db := m.Generate(workload.MoviesParams{Persons: 4000, Movies: 4000, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
		sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
		if err != nil {
			log.Fatal(err)
		}
		// The generator clones its pools BEFORE Open: the handle consumes
		// the database (P > 1 moves its rows, P = 1 mutates it in place).
		ch := workload.NewSwapChurn(m, db, workload.SwapChurnParams{Seed: 1})
		batch := db.Size() / 100
		h, err := sys.Open(db, repro.WithRetainEpochs(retain), repro.WithShards(cfg.shards))
		if err != nil {
			log.Fatal(err)
		}
		xi0 := m.Fig1Plan()

		apply := func() {
			ins, del := ch.Batch(batch)
			if _, err := h.ApplyDelta(ins, del); err != nil {
				log.Fatal(err)
			}
		}
		warmup := cfg.batches / 10
		for b := 0; b < warmup; b++ {
			apply()
		}
		floor := liveHeap()

		applied := warmup
		steady := floor
		sampleEvery := cfg.batches / 20
		if sampleEvery < 1 {
			sampleEvery = 1
		}
		for b := warmup; b < cfg.batches; b++ {
			apply()
			applied++
			if b%16 == 0 {
				// Reader traffic: pin the current epoch, read, release.
				s := h.Snapshot()
				if _, _, err := s.Execute(xi0); err != nil {
					log.Fatal(err)
				}
				if err := s.Close(); err != nil {
					log.Fatal(err)
				}
			}
			if b%64 == 0 && applied > retain {
				// Point-in-time traffic through the retention ring.
				s, err := h.At(uint64(applied) - retain/2)
				if err != nil {
					log.Fatal(err)
				}
				if s.Size() == 0 {
					log.Fatal("retained epoch serves an empty instance")
				}
				if err := s.Close(); err != nil {
					log.Fatal(err)
				}
			}
			if b%sampleEvery == 0 {
				if hp := liveHeap(); hp > steady {
					steady = hp
				}
			}
		}
		if hp := liveHeap(); hp > steady {
			steady = hp
		}
		ratio := float64(steady) / float64(floor)
		lc := h.Lifecycle()
		fmt.Printf("| %s | %d | %d | %.1f MB | %.1f MB | %.2fx | %d |\n",
			cfg.name, cfg.batches, batch,
			float64(floor)/(1<<20), float64(steady)/(1<<20), ratio,
			lc.ReclaimedEpochs)
		record(measurement{Experiment: "churnmem", Name: cfg.name,
			Shards: cfg.shards, Batches: cfg.batches, BatchOps: batch,
			HeapFloorBytes: floor, HeapSteadyBytes: steady, HeapRatio: ratio,
			Reclaimed: lc.ReclaimedEpochs})
		if lc.LiveSnapshots != 0 {
			log.Fatalf("%s: %d snapshots still pinned after the run (all were closed)", cfg.name, lc.LiveSnapshots)
		}
		if lc.ReclaimedEpochs == 0 {
			log.Fatalf("%s: no epoch was ever reclaimed — the retention ring is not releasing", cfg.name)
		}
		if ratio > 1.5 {
			log.Fatalf("%s: steady-state heap is %.2fx the post-warmup floor (gate: <= 1.5x) — epoch state is leaking", cfg.name, ratio)
		}
		if err := h.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ngate: max post-warmup live heap <= 1.5x the warmup floor (retain = %d epochs)\n", retain)
}

// expFeedback measures the closed-loop optimizer on the adversarial skew
// fixture: the collected statistics misestimate the hot-group probe by
// >1000x, so open-loop selection pins a plan fetching ~375x more than the
// best candidate in its own frontier. The closed loop profiles every
// execution, overlays the realized group widths on the estimates, and
// re-ranks — the run GATES that the chosen plan's realized fetches land
// within 1.2x of the frontier's best after k executions and stay there
// (no flapping) over 1000 more, at P = 1 and P = 8.
func expFeedback() {
	header("EXP-FEEDBACK — observed-cost feedback: closed-loop vs open-loop selection")
	const (
		k      = 8    // convergence budget (executions)
		steady = 1000 // stability window (further executions)
	)
	fmt.Println("| engine | candidates | open-loop fetch/exec | closed-loop fetch/exec | improvement | converged at | switches | explorations |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, shards := range []int{1, 8} {
		fx := workload.NewPlanFeedback()
		sys, err := repro.NewSystem(fx.Schema, fx.Access, fx.Views(), fx.M)
		if err != nil {
			log.Fatal(err)
		}
		db := fx.Generate()
		direct, err := sys.EvalDirect(cq.NewUCQ(fx.Q), db)
		if err != nil {
			log.Fatal(err)
		}
		engine := fmt.Sprintf("P=%d", shards)
		h, err := sys.Open(db, repro.WithShards(shards))
		if err != nil {
			log.Fatal(err)
		}
		pq, err := sys.Prepare(cq.NewUCQ(fx.Q), plan.LangCQ)
		if err != nil {
			log.Fatal(err)
		}

		// Frontier ground truth: realized |Dξ| of every candidate.
		cands := pq.Candidates()
		minFetch := -1
		for _, c := range cands {
			crows, fetched, err := h.Execute(c)
			if err != nil {
				log.Fatal(err)
			}
			if !cq.RowsEqual(crows, direct) {
				log.Fatalf("candidate plan disagrees with direct evaluation:\n%s", plan.Render(c))
			}
			if minFetch < 0 || fetched < minFetch {
				minFetch = fetched
			}
		}
		bound := 12 * max(1, minFetch) / 10 // the 1.2x convergence gate

		// Open-loop baseline: the estimate-ranked pick, never corrected.
		st, _ := h.Stats()
		openIdx, _ := plan.Best(cands, st)
		_, openFetch, err := h.Execute(cands[openIdx])
		if err != nil {
			log.Fatal(err)
		}
		if openFetch < 10*max(1, minFetch) {
			log.Fatalf("fixture not adversarial: open-loop pick fetches %d, frontier min %d", openFetch, minFetch)
		}

		// Closed loop: converge within k, then hold for `steady` more.
		convergedAt := -1
		lastFetch := -1
		for i := 1; i <= k; i++ {
			rows, fetched, err := pq.Execute(h)
			if err != nil {
				log.Fatal(err)
			}
			if !cq.RowsEqual(rows, direct) {
				log.Fatal("closed-loop answers diverge from direct evaluation")
			}
			lastFetch = fetched
			if convergedAt < 0 && fetched <= bound {
				convergedAt = i
			}
		}
		if convergedAt < 0 || lastFetch > bound {
			log.Fatalf("%s: no convergence after %d executions: fetched %d, frontier min %d (bound %d)",
				engine, k, lastFetch, minFetch, bound)
		}
		selStats, ok := pq.SelectionStats(h)
		if !ok {
			log.Fatal("no selection state after executing")
		}
		switchesAtK := selStats.Switches
		for i := 0; i < steady; i++ {
			_, fetched, err := pq.Execute(h)
			if err != nil {
				log.Fatal(err)
			}
			if fetched > bound {
				log.Fatalf("%s: plan flapped at steady-state execution %d: fetched %d (bound %d)",
					engine, i, fetched, bound)
			}
		}
		selStats, _ = pq.SelectionStats(h)
		if selStats.Switches != switchesAtK {
			log.Fatalf("%s: selection oscillated: %d -> %d switches over %d stable executions",
				engine, switchesAtK, selStats.Switches, steady)
		}
		improvement := float64(openFetch) / float64(max(1, lastFetch))
		record(measurement{Experiment: "feedback", Name: engine, DBSize: h.Size(),
			Candidates: len(cands), OpenLoopFetch: openFetch, Fetched: lastFetch,
			Speedup: improvement, ConvergedAt: convergedAt,
			Switches: selStats.Switches, Explorations: selStats.Explorations})
		fmt.Printf("| %s | %d | %d | %d | %.0fx | %d | %d | %d |\n",
			engine, len(cands), openFetch, lastFetch, improvement,
			convergedAt, selStats.Switches, selStats.Explorations)
		if err := h.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\n(The open loop trusts skew-blind distinct-count averages and pins the hot-group")
	fmt.Println("probe forever; the closed loop pays the misestimate once, overlays the realized")
	fmt.Println("group width, and re-ranks its own cached frontier — no new VBRP search.)")
}

// expObs measures the observability tax on the epoch read path and
// verifies the instrumentation's exactness claim.
//
// Overhead: interleaved rounds of identical plan executions against an
// instrumented handle (metrics on, the default) and one opened
// WithoutMetrics, over identical databases. Recording on the read path
// is two clock reads, one histogram observe (three atomic adds) and a
// striped counter increment, so the median-round throughput ratio must
// stay >= 0.95 — metrics are not allowed to buy more than 5% of the
// epoch readers' throughput.
//
// Exactness: a third handle arms the slow-query log with a 1ns
// threshold so every execution is traced, pins a snapshot, and runs
// once; the trace's per-constraint group rows must sum to EXACTLY the
// snapshot's own fetched-tuple counter — the per-constraint attribution
// and the engine's fetch accounting are two views of the same count,
// and any drift between them is a lost or double-counted tuple.
func expObs() {
	header("EXP-OBS — observability overhead: instrumented vs bare epoch readers")
	const (
		n        = 3000
		rounds   = 9
		perRound = 800
	)
	m := workload.NewMovies(50)
	params := workload.MoviesParams{Persons: n, Movies: n, LikesPerPerson: 5, NASAShare: 10, Seed: 7}
	sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
	if err != nil {
		log.Fatal(err)
	}
	xi0 := m.Fig1Plan()

	open := func(opts ...repro.OpenOption) repro.Handle {
		h, err := sys.Open(m.Generate(params), opts...)
		if err != nil {
			log.Fatal(err)
		}
		// Warm-up: lazy one-time builds out of the measured rounds.
		if _, _, err := h.Execute(xi0); err != nil {
			log.Fatal(err)
		}
		return h
	}
	inst := open()
	bare := open(repro.WithoutMetrics())
	defer inst.Close()
	defer bare.Close()

	// Per-execution MINIMUM latency, not round throughput: on a shared
	// (often single-core) CI box, scheduler preemption, GC and thermal
	// noise swing whole-round throughput by 10-20% — far coarser than
	// the 5% being gated. Noise only ever ADDS latency, so the minimum
	// over thousands of individually-timed executions converges on the
	// clean cost of one execution, and that best case is exactly where
	// a per-call instrumentation tax must show.
	round := func(h repro.Handle, best time.Duration) time.Duration {
		for i := 0; i < perRound; i++ {
			t0 := time.Now()
			if _, _, err := h.Execute(xi0); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	// Interleave the rounds so clock drift and thermal noise land on
	// both sides evenly.
	instMin, bareMin := time.Duration(1<<62), time.Duration(1<<62)
	runtime.GC()
	for r := 0; r < rounds; r++ {
		instMin = round(inst, instMin)
		bareMin = round(bare, bareMin)
	}
	instPeak := 1 / instMin.Seconds()
	barePeak := 1 / bareMin.Seconds()
	ratio := instPeak / barePeak

	record(measurement{Experiment: "obs", Name: "instrumented", DBSize: inst.Size(), OpsPerSec: instPeak})
	record(measurement{Experiment: "obs", Name: "bare", DBSize: bare.Size(), OpsPerSec: barePeak})
	record(measurement{Experiment: "obs", Name: "overhead", Speedup: ratio})

	fmt.Printf("|D| = %d tuples, %d interleaved rounds of %d timed executions per handle, GOMAXPROCS=%d\n\n",
		inst.Size(), rounds, perRound, runtime.GOMAXPROCS(0))
	fmt.Println("| handle | best-case latency | best-case throughput (exec/s) |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| instrumented (default) | %v | %.0f |\n", instMin, instPeak)
	fmt.Printf("| WithoutMetrics | %v | %.0f |\n", bareMin, barePeak)
	fmt.Printf("\ngate: instrumented/bare = %.3f >= 0.95\n", ratio)
	if ratio < 0.95 {
		log.Fatalf("metrics cost %.1f%% of epoch-reader throughput (gate: <= 5%%)", 100*(1-ratio))
	}

	// Exactness: trace attribution vs the snapshot's fetch counter.
	traced := open(repro.WithSlowQueryThreshold(time.Nanosecond))
	defer traced.Close()
	s := traced.Snapshot()
	defer s.Close()
	base := s.FetchedTuples()
	_, fetched, err := s.Execute(xi0)
	if err != nil {
		log.Fatal(err)
	}
	traces := traced.SlowQueries()
	if len(traces) == 0 {
		log.Fatal("a 1ns slow threshold traced nothing")
	}
	tr := traces[0]
	var groupRows int
	for _, g := range tr.Groups {
		groupRows += g.Rows
	}
	pinned := s.FetchedTuples() - base
	fmt.Printf("\ntrace reconciliation at epoch %d: trace fetched %d, group-rows sum %d, snapshot counted %d\n",
		tr.EpochSeq, tr.Fetched, groupRows, pinned)
	if tr.Fetched != fetched || groupRows != fetched || pinned != fetched {
		log.Fatalf("trace accounting diverged: exec reported %d, trace %d, groups %d, snapshot %d",
			fetched, tr.Fetched, groupRows, pinned)
	}
	fmt.Println("(the fetch gauge, the snapshot counter and the trace groups all read the same")
	fmt.Println("per-call attribution — equality is by construction, and gated here.)")
}
