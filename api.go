// Package repro is a from-scratch Go implementation of "Bounded Query
// Rewriting Using Views" (Cao, Fan, Geerts, Lu; PODS 2016 / ACM TODS 43(1),
// 2018): scale-independent query answering by rewriting queries into plans
// that read cached views plus a constant-size slice of the database,
// located through access constraints.
//
// The package is a facade over the internal implementation:
//
//   - schemas, instances and access constraints (R, D, A) with the O(N)
//     fetch indices the constraints promise;
//   - CQ/UCQ/FO queries and views;
//   - the effective syntax of Section 5 (topped queries): PTIME checking
//     plus PTIME plan synthesis — the practical path;
//   - the VBRP decision procedures of Sections 3-4 and 6 (exact,
//     enumeration-based; exponential, for the theory experiments);
//   - the bounded-output problem BOP and A-equivalence reasoning;
//   - serving handles (Open) that execute plans over live, epoch-versioned
//     data and report each call's fetched tuples |Dξ|.
//
// See README.md for a walkthrough and EXPERIMENTS.md for the reproduction
// of the paper's tables and figures.
package repro

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/boundedness"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/parse"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/topped"
	"repro/internal/vbrp"
)

// Re-exported core types. The internal packages remain the source of
// truth; these aliases give library users one import path.
type (
	// Relation is a relation schema R(A1,...,Ak).
	Relation = schema.Relation
	// Schema is a database schema.
	Schema = schema.Schema
	// Constraint is an access constraint R(X -> Y, N).
	Constraint = access.Constraint
	// AccessSchema is a set of access constraints.
	AccessSchema = access.Schema
	// Database is an in-memory instance.
	Database = instance.Database
	// Tuple is a database row.
	Tuple = instance.Tuple
	// Op is one tuple-level mutation of a batch delta (insert or delete).
	Op = instance.Op
	// Applied reports what a batch delta physically changed.
	Applied = instance.Applied
	// Term is a variable or constant in a query.
	Term = cq.Term
	// Atom is a relation atom.
	Atom = cq.Atom
	// CQ is a conjunctive query.
	CQ = cq.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = cq.UCQ
	// FOQuery is a first-order (relational calculus) query.
	FOQuery = fo.Query
	// FOExpr is a first-order formula.
	FOExpr = fo.Expr
	// Plan is a query-plan node (Section 2 plan trees).
	Plan = plan.Node
	// Language identifies a plan language: CQ, UCQ, ∃FO+ or FO.
	Language = plan.Language
)

// Plan language constants.
const (
	LangCQ    = plan.LangCQ
	LangUCQ   = plan.LangUCQ
	LangPosFO = plan.LangPosFO
	LangFO    = plan.LangFO
)

// Constructors re-exported for convenience.
var (
	// NewRelation builds a relation schema.
	NewRelation = schema.NewRelation
	// NewSchema builds a database schema.
	NewSchema = schema.New
	// NewConstraint builds an access constraint R(X -> Y, N).
	NewConstraint = access.NewConstraint
	// NewAccessSchema builds an access schema.
	NewAccessSchema = access.NewSchema
	// NewDatabase builds an empty instance of a schema.
	NewDatabase = instance.NewDatabase
	// Var and Cst build query terms.
	Var = cq.Var
	// Cst builds a constant term.
	Cst = cq.Cst
	// NewAtom builds a relation atom.
	NewAtom = cq.NewAtom
	// NewCQ builds a conjunctive query.
	NewCQ = cq.NewCQ
	// NewUCQ builds a union of conjunctive queries.
	NewUCQ = cq.NewUCQ
	// ParseQuery parses the text syntax "Q(x) :- R(x, \"c\")."
	ParseQuery = parse.Query
	// ParseConstraint parses "rel(x -> y, N)".
	ParseConstraint = parse.Constraint
	// ParseProgram parses a multi-line program of rules and constraints.
	ParseProgram = parse.ParseProgram
	// RenderPlan pretty-prints a plan tree.
	RenderPlan = plan.Render
)

// System bundles the fixed parameters of an application, per Section 5.1:
// the database schema R, the access schema A, the views V (as UCQ
// definitions), and the resource bound M.
type System struct {
	Schema *Schema
	Access *AccessSchema
	Views  map[string]*UCQ
	M      int

	// Prepared-query caches (see Prepare). prepT maps a template key
	// (the canonical key of the query with its non-view constants
	// abstracted) to the VBRP search result, so queries that differ only
	// in those constants, or only by renaming, share one exponential
	// search. prepQ maps a concrete canonical key to the PreparedQuery
	// bound from its template, which carries that query's own selection
	// state. Entries of both are created under prepQMu; searching and
	// binding run under the entry's once, so concurrent Prepare calls
	// for different queries do not serialize.
	prepQMu      sync.Mutex
	prepQ        map[string]*prepEntry
	prepT        map[string]*prepEntry
	prepSearches atomic.Int64 // VBRP searches actually run (one per template)
	prepHits     atomic.Int64 // Prepare calls answered from the concrete cache
	prepEvicts   atomic.Int64 // entries either cache evicted under its bound

	// prepCacheBound overrides prepCacheMax, the bound of each cache,
	// when positive (test seam).
	prepCacheBound int
}

// releaseHandle clears a closed handle's per-query selection state from
// every cached prepared query, so dead handle ids stop occupying the
// bounded selection slots. Called by Handle.Close.
func (sys *System) releaseHandle(id uint64) {
	sys.prepQMu.Lock()
	pqs := make([]*PreparedQuery, 0, len(sys.prepQ))
	for _, e := range sys.prepQ {
		if e.done.Load() && e.pq != nil {
			pqs = append(pqs, e.pq)
		}
	}
	sys.prepQMu.Unlock()
	for _, pq := range pqs {
		pq.dropHandle(id)
	}
}

// NewSystem builds a System after validating the constraints and views
// against the schema.
func NewSystem(s *Schema, a *AccessSchema, views map[string]*UCQ, m int) (*System, error) {
	if err := a.Validate(s); err != nil {
		return nil, err
	}
	for name, def := range views {
		for _, d := range def.Disjuncts {
			if err := d.Validate(s, nil); err != nil {
				return nil, fmt.Errorf("view %s: %w", name, err)
			}
		}
	}
	return &System{Schema: s, Access: a, Views: views, M: m}, nil
}

// ToppedResult reports a topped-query check: whether the query is topped
// by (R, V, A, M), the synthesized plan and its size.
type ToppedResult struct {
	Topped bool
	Size   int
	Plan   Plan
	Reason string
}

// CheckTopped decides in PTIME whether the FO query is topped by
// (R, V, A, M) and synthesizes the witnessing M-bounded rewriting
// (Theorem 5.1). This is the practical path for using bounded rewriting.
func (sys *System) CheckTopped(q *FOQuery) ToppedResult {
	c := topped.NewChecker(sys.Schema, sys.Access, sys.Views)
	r := c.Check(q, sys.M)
	return ToppedResult{Topped: r.Topped, Size: r.Size, Plan: r.Plan, Reason: r.Reason}
}

// CheckToppedCQ is CheckTopped for a conjunctive query (embedded into FO).
func (sys *System) CheckToppedCQ(q *CQ) ToppedResult {
	return sys.CheckTopped(fo.FromCQ(q))
}

// HasBoundedRewriting decides VBRP exactly for a UCQ query in the given
// plan language (CQ, UCQ or ∃FO+) by candidate-plan enumeration — the Σp3
// procedure of Theorem 3.1. Exponential; intended for small M and the
// theory experiments. The limits mirror vbrp.Problem's.
//
// Unlike the bare decision procedure, the full candidate frontier is
// enumerated (up to vbrp.Problem's MaxCandidates) and the returned plan is
// the cheapest under the static cost model — ranked purely from the
// access-constraint bounds N, since no instance statistics exist here. Use
// Prepare for statistics-aware selection against a Live handle, or
// vbrp.Decide directly when only the yes/no (first witness) is needed —
// that path stops at the first A-equivalent plan instead of costing the
// frontier.
func (sys *System) HasBoundedRewriting(q *UCQ, lang Language) (bool, Plan, error) {
	cands, err := sys.searchCandidates(q, lang)
	if err != nil && err != vbrp.ErrSearchTruncated {
		return false, nil, err
	}
	if len(cands) == 0 {
		if err == vbrp.ErrSearchTruncated {
			return false, nil, err // truncated search: a "no" is unreliable
		}
		return false, nil, nil
	}
	plans := make([]Plan, len(cands))
	for i, c := range cands {
		plans[i] = c.Plan
	}
	best, _ := plan.Best(plans, nil)
	return true, plans[best], nil
}

// searchCandidates runs the full VBRP enumeration for q, returning every
// conforming A-equivalent candidate plan (the budgeted frontier).
func (sys *System) searchCandidates(q *UCQ, lang Language) ([]vbrp.Candidate, error) {
	var consts []string
	for _, d := range q.Disjuncts {
		consts = append(consts, d.Constants()...)
	}
	prob := &vbrp.Problem{
		S: sys.Schema, A: sys.Access, Views: sys.Views,
		M: sys.M, Lang: lang, Consts: consts,
	}
	return vbrp.Candidates(q, prob)
}

// BoundedOutput decides BOP for a UCQ under the system's access schema
// (Theorem 3.4): whether |Q(D)| is bounded by a constant over all D |= A,
// and the derived bound.
func (sys *System) BoundedOutput(q *UCQ) (bool, int64) {
	return boundedness.BoundedOutputUCQ(q, sys.Schema, sys.Access)
}

// AEquivalent decides Q1 ≡_A Q2 for UCQs (Lemma 3.2 machinery).
func (sys *System) AEquivalent(q1, q2 *UCQ) bool {
	return boundedness.AEquivalentUCQ(q1, q2, sys.Schema, sys.Access)
}

// AContained decides Q1 ⊑_A Q2 for UCQs.
func (sys *System) AContained(q1, q2 *UCQ) bool {
	return boundedness.AContainedUCQ(q1, q2, sys.Schema, sys.Access)
}

// Materialize computes the cached view extents V(D).
func (sys *System) Materialize(db *Database) (map[string][][]string, error) {
	return eval.Materialize(sys.Views, db)
}

// EvalDirect evaluates a UCQ by full scans (the baseline an engine without
// access constraints performs).
func (sys *System) EvalDirect(q *UCQ, db *Database) ([][]string, error) {
	views, err := sys.Materialize(db)
	if err != nil {
		return nil, err
	}
	return eval.UCQOnDB(q, &eval.Source{DB: db, Views: views})
}

// EvalDirectFO evaluates a safe-range FO query by full scans.
func (sys *System) EvalDirectFO(q *FOQuery, db *Database) ([][]string, error) {
	views, err := sys.Materialize(db)
	if err != nil {
		return nil, err
	}
	return eval.FOOnDB(q, &eval.Source{DB: db, Views: views})
}

// Conforms checks plan conformance to the access schema (Section 2) and
// returns the derived bound on fetched tuples.
func (sys *System) Conforms(p Plan) (bool, int64, string) {
	rep := plan.Conforms(p, sys.Schema, sys.Access, sys.Views)
	return rep.Conforms, rep.FetchBound, rep.Reason
}

// MakeSizeBounded wraps an FO query in the size-bounded effective syntax
// of Section 5.3 with bound K (Theorem 5.2).
func MakeSizeBounded(q *FOQuery, k int64) *FOQuery { return topped.MakeSizeBounded(q, k) }

// IsSizeBounded recognizes the size-bounded syntax, returning K and the
// inner query.
func IsSizeBounded(q *FOQuery) (int64, *FOQuery, bool) { return topped.IsSizeBounded(q) }
