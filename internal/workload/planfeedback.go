package workload

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/schema"
)

// PlanFeedback is the adversarial fixture for the observed-cost feedback
// loop: a skewed instance on which the collected statistics misestimate
// the best candidate's fetch volume by orders of magnitude, so open-loop
// selection pins a plan that fetches ~1000x more than a rival in its own
// frontier. One relation R(A,B,C) and three ways to reach the data:
//
//   - ByA: R(A -> (B,C), NProbe) — probe by A. The A column is almost all
//     singletons (~Singletons distinct values) PLUS one hot group "k" of
//     HotGroup rows: the estimator's |R|/distinct(A) average says a probe
//     returns ~1.5 tuples, but probing "k" actually fetches HotGroup.
//   - ByB: R(B -> (A,C), NProbe) — probe by B. Only ~BValues distinct B
//     values, so the same average says ~|R|/BValues tuples per probe; the
//     probed group "j" actually holds just JGroup rows.
//   - All: R(∅ -> (A,B,C), NAll) — the scan fallback.
//
// The query Q(c) :- R("k", "j", c) admits candidates through all three:
// the estimates rank ByA (≈1.5) far below ByB (≈360) below All (≈|R|),
// while the realized fetch volumes are HotGroup (3000) vs JGroup (8) vs
// |R| — the estimate-vs-realized ranking inversion the feedback loop must
// detect and correct. Misestimate factor on ByA: HotGroup/(|R|/#A) —
// >1000x at the defaults, far past the 10x the convergence gate needs.
type PlanFeedback struct {
	Schema *schema.Schema
	Access *access.Schema
	Q      *cq.CQ
	M      int

	ByA *access.Constraint
	ByB *access.Constraint
	All *access.Constraint

	HotGroup   int // rows in the hot A-group "k" (realized ByA fetch)
	JGroup     int // rows with B = "j" (realized ByB fetch); half are answers
	Singletons int // singleton A-values outside the hot group
	BValues    int // distinct B-values besides "j"
}

// NewPlanFeedback builds the fixture at the default scale: a ~9k-row
// instance whose hot group misestimates ByA by >1000x.
func NewPlanFeedback() *PlanFeedback {
	s := schema.New(schema.NewRelation("R", "A", "B", "C"))
	byA := access.NewConstraint("R", []string{"A"}, []string{"B", "C"}, 4096)
	byB := access.NewConstraint("R", []string{"B"}, []string{"A", "C"}, 4096)
	all := access.NewConstraint("R", nil, []string{"A", "B", "C"}, 1_000_000)
	q := cq.NewCQ([]cq.Term{cq.Var("c")}, []cq.Atom{
		cq.NewAtom("R", cq.Cst("k"), cq.Cst("j"), cq.Var("c")),
	})
	q.Name = "Q"
	return &PlanFeedback{
		Schema: s,
		Access: access.NewSchema(byA, byB, all),
		Q:      q, M: 4,
		ByA: byA, ByB: byB, All: all,
		HotGroup: 3000, JGroup: 8, Singletons: 6000, BValues: 20,
	}
}

// Views returns no views: every candidate reaches the data through a
// fetch, so realized fetch volumes alone separate the frontier.
func (p *PlanFeedback) Views() map[string]*cq.UCQ {
	return map[string]*cq.UCQ{}
}

// Generate builds the skewed instance:
//
//   - JGroup/2 answer rows ("k", "j", c...) — in the hot group AND "j";
//   - HotGroup-JGroup/2 rows ("k", b_i, ...) spread over the other
//     B-values — the hot A-group the estimator cannot see;
//   - JGroup/2 rows (singleton A, "j", ...) — "j" rows outside "k";
//   - Singletons rows (singleton A, b_i, ...) — the distinct-count mass
//     that drives the ByA width estimate to ~1.
func (p *PlanFeedback) Generate() *instance.Database {
	db := instance.NewDatabase(p.Schema)
	answers := p.JGroup / 2
	for i := 0; i < answers; i++ {
		db.MustInsert("R", "k", "j", fmt.Sprintf("ans%d", i))
	}
	for i := answers; i < p.HotGroup; i++ {
		db.MustInsert("R", "k", fmt.Sprintf("b%d", i%p.BValues), fmt.Sprintf("hc%d", i))
	}
	for i := 0; i < p.JGroup-answers; i++ {
		db.MustInsert("R", fmt.Sprintf("j%d", i), "j", fmt.Sprintf("jc%d", i))
	}
	for i := 0; i < p.Singletons; i++ {
		db.MustInsert("R", fmt.Sprintf("s%d", i), fmt.Sprintf("b%d", i%p.BValues), fmt.Sprintf("sc%d", i))
	}
	return db
}

// ChurnBatch returns a batch of inserts that preserves the fixture's skew
// shape (fresh singleton A-values, recycled B-values): its epoch publishes
// new statistics without changing which candidate is realized-cheapest.
func (p *PlanFeedback) ChurnBatch(round, size int) []instance.Op {
	ops := make([]instance.Op, 0, size)
	for i := 0; i < size; i++ {
		ops = append(ops, instance.Op{Rel: "R", Row: instance.Tuple{
			fmt.Sprintf("x%d_%d", round, i),
			fmt.Sprintf("b%d", i%p.BValues),
			fmt.Sprintf("xc%d_%d", round, i),
		}})
	}
	return ops
}
