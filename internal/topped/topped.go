// Package topped implements the effective syntax of Section 5: queries
// topped by (R, V, A, M) — a PTIME-checkable class of FO queries that
// covers, up to A-equivalence, every FO query with an M-bounded rewriting
// using V under A (Theorem 5.1) — and size-bounded queries, the effective
// syntax for FO queries with bounded output (Theorem 5.2).
//
// The checker is constructive: it simultaneously decides the covq(·,·)
// conditions of Section 5.2 and synthesizes the witnessing query plan, so
// size(Qε, Q) is realized as the actual node count of the generated plan
// and Theorem 5.1(b)'s "a bounded rewriting can be identified in PTIME"
// is the generator itself.
package topped

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/plan"
	"repro/internal/schema"
)

// DefaultK is the default bound on |Q2| for the context-expansion cases
// (4c)/(6b); the paper notes any fixed K (even 1) preserves expressive
// power up to equivalence while keeping the check PTIME.
const DefaultK = 12

// Checker decides topped-ness and synthesizes plans.
type Checker struct {
	S     *schema.Schema
	A     *access.Schema
	Views map[string]*cq.UCQ // view name -> definition
	K     int                // context-expansion size bound (DefaultK if 0)

	fresh int
	memo  map[string]memoEntry
}

type memoEntry struct {
	p   plan.Node
	err error
}

// NewChecker builds a checker for (R, V, A).
func NewChecker(s *schema.Schema, a *access.Schema, views map[string]*cq.UCQ) *Checker {
	return &Checker{S: s, A: a, Views: views, K: DefaultK, memo: map[string]memoEntry{}}
}

// Result reports a topped-ness decision.
type Result struct {
	Topped bool
	Size   int       // size(Qε, Q): the synthesized plan's node count
	Plan   plan.Node // the M-bounded rewriting (nil when not topped)
	Reason string    // failure explanation when not topped
}

// Check decides whether q is topped by (R, V, A, M) and, if so, returns
// the synthesized plan (an M-bounded rewriting of q in FO using V under A).
func (c *Checker) Check(q *fo.Query, M int) Result {
	p, err := c.Plan(q)
	if err != nil {
		return Result{Topped: false, Reason: err.Error()}
	}
	size := p.Size()
	if size > M {
		return Result{Topped: false, Size: size, Plan: p,
			Reason: fmt.Sprintf("plan size %d exceeds bound M=%d", size, M)}
	}
	return Result{Topped: true, Size: size, Plan: p}
}

// CheckCQ embeds a conjunctive query into FO and checks topped-ness.
func (c *Checker) CheckCQ(q *cq.CQ, M int) Result {
	return c.Check(fo.FromCQ(q), M)
}

// Plan synthesizes a query plan for q (covq(Qε, Q) as a constructive
// check), projecting the final plan to q's head.
func (c *Checker) Plan(q *fo.Query) (plan.Node, error) {
	if c.memo == nil {
		c.memo = map[string]memoEntry{}
	}
	body := fo.Rectify(q.Body)
	p, err := c.gen(ctxEmpty(), body, toSet(q.Head))
	if err != nil {
		return nil, err
	}
	p, err = c.projectTo(p, q.Head)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(p, c.S); err != nil {
		return nil, fmt.Errorf("topped: generated plan invalid: %w", err)
	}
	return p, nil
}

// ---- conjunction context (Qs) ----

// ctx is the conjunction context Qs: its conjuncts and the plan computing
// them. The empty context Qε has no conjuncts and a nil plan.
type ctx struct {
	exprs []fo.Expr
	p     plan.Node
}

func ctxEmpty() *ctx { return &ctx{} }

func (q *ctx) attrs() []string {
	if q.p == nil {
		return nil
	}
	return q.p.Attrs()
}

func (q *ctx) extended(e fo.Expr, p plan.Node) *ctx {
	return &ctx{exprs: append(append([]fo.Expr(nil), q.exprs...), e), p: p}
}

func (q *ctx) key() string {
	parts := make([]string, len(q.exprs))
	for i, e := range q.exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, "&")
}

// ---- main recursion ----

// gen synthesizes a plan for Qs ∧ e whose output attributes cover
// (fv(Qs) ∪ fv(e)) ∩ needed and are a subset of fv(Qs) ∪ fv(e).
func (c *Checker) gen(qs *ctx, e fo.Expr, needed map[string]bool) (plan.Node, error) {
	key := qs.key() + "\x00" + e.String() + "\x00" + setKey(needed)
	if m, ok := c.memo[key]; ok {
		return m.p, m.err
	}
	p, err := c.genUncached(qs, e, needed)
	c.memo[key] = memoEntry{p, err}
	return p, err
}

func (c *Checker) genUncached(qs *ctx, e fo.Expr, needed map[string]bool) (plan.Node, error) {
	switch x := e.(type) {
	case *fo.Cmp:
		return c.genCmp(qs, x)

	case *fo.Atom:
		if _, isView := c.Views[x.Rel]; isView {
			return c.genView(qs, x)
		}
		return c.genAtomFetch(qs, x, nil, needed)

	case *fo.Exists:
		// Flatten nested quantifier prefixes.
		vars, inner := append([]string(nil), x.Vars...), x.E
		for {
			nx, ok := inner.(*fo.Exists)
			if !ok {
				break
			}
			vars = append(vars, nx.Vars...)
			inner = nx.E
		}
		// Case (7a)/(7b): existential projection of a base-relation atom
		// maps directly to a fetch; otherwise case (7c).
		if at, ok := inner.(*fo.Atom); ok {
			if _, isView := c.Views[at.Rel]; !isView {
				return c.genAtomFetch(qs, at, vars, needed)
			}
		}
		innerNeeded := cloneSet(needed)
		for _, v := range vars {
			delete(innerNeeded, v)
		}
		p, err := c.gen(qs, inner, innerNeeded)
		if err != nil {
			return nil, err
		}
		return c.dropAttrs(p, vars)

	case *fo.And:
		// Normalize ¬ to the right operand (the grammar's Q1 ∧ ¬Q2).
		l, r := x.L, x.R
		if _, ln := l.(*fo.Not); ln {
			if _, rn := r.(*fo.Not); !rn {
				l, r = r, l
			}
		}
		if n, ok := r.(*fo.Not); ok {
			return c.genNegation(qs, l, n.E, needed)
		}
		if cmp, ok := r.(*fo.Cmp); ok {
			// Case (3): Q' ∧ C.
			p, err := c.gen(qs, l, unionSets(needed, toSet(cmp.FreeVars())))
			if err != nil {
				return nil, err
			}
			return c.applyCmp(p, cmp)
		}
		if cmp, ok := l.(*fo.Cmp); ok {
			p, err := c.gen(qs, r, unionSets(needed, toSet(cmp.FreeVars())))
			if err != nil {
				return nil, err
			}
			return c.applyCmp(p, cmp)
		}
		return c.genConj(qs, l, r, needed)

	case *fo.Or:
		return c.genDisj(qs, x.L, x.R, needed)

	case *fo.Not:
		return nil, fmt.Errorf("topped: bare negation %s is not range-restricted", x)

	case *fo.Implies, *fo.Forall:
		return c.gen(qs, fo.Desugar(e), needed)

	default:
		return nil, fmt.Errorf("topped: unsupported formula %T", e)
	}
}

// genCmp handles case (1) and standalone comparisons: z = c introduces a
// constant; other comparisons filter the context.
func (c *Checker) genCmp(qs *ctx, x *fo.Cmp) (plan.Node, error) {
	// z = c (or c = z) with z not bound by the context: a constant node.
	varSide, constSide := x.L, x.R
	if varSide.Const && !constSide.Const {
		varSide, constSide = constSide, varSide
	}
	if !varSide.Const && constSide.Const && !x.Neq && !inAttrs(qs.attrs(), varSide.Val) {
		cn := &plan.Const{Attr: varSide.Val, Val: constSide.Val}
		if qs.p == nil {
			return cn, nil
		}
		return &plan.Product{L: qs.p, R: cn}, nil
	}
	// Otherwise both sides must be bound by the context: a selection.
	if qs.p == nil {
		return nil, fmt.Errorf("topped: comparison %s over unbound variables", x)
	}
	return c.applyCmp(qs.p, x)
}

// applyCmp appends a selection for the comparison; its variables must be
// attributes of the plan.
func (c *Checker) applyCmp(p plan.Node, x *fo.Cmp) (plan.Node, error) {
	attrs := p.Attrs()
	mk := func(t cq.Term) (string, bool, error) {
		if t.Const {
			return t.Val, true, nil
		}
		if !inAttrs(attrs, t.Val) {
			return "", false, fmt.Errorf("topped: comparison variable %s not bound", t.Val)
		}
		return t.Val, false, nil
	}
	lv, lc, err := mk(x.L)
	if err != nil {
		return nil, err
	}
	rv, rc, err := mk(x.R)
	if err != nil {
		return nil, err
	}
	if lc && !rc {
		lv, lc, rv, rc = rv, rc, lv, lc
	}
	if lc && rc {
		return nil, fmt.Errorf("topped: constant comparison %s", x)
	}
	return &plan.Select{Child: p, Cond: []plan.CondItem{{L: lv, RConst: rc, R: rv, Neq: x.Neq}}}, nil
}

// genView handles case (2): a view atom is a cached scan; repeated
// variables and constants in the call become selections, and a non-empty
// context joins in.
func (c *Checker) genView(qs *ctx, x *fo.Atom) (plan.Node, error) {
	def := c.Views[x.Rel]
	if def == nil || len(def.Disjuncts) == 0 {
		return nil, fmt.Errorf("topped: view %s has no definition", x.Rel)
	}
	cols := make([]string, len(x.Args))
	var conds []plan.CondItem
	seen := map[string]int{}
	for i, t := range x.Args {
		switch {
		case t.Const:
			cols[i] = c.freshAttr()
			conds = append(conds, plan.CondItem{L: cols[i], RConst: true, R: t.Val})
		default:
			if j, dup := seen[t.Val]; dup {
				cols[i] = c.freshAttr()
				conds = append(conds, plan.CondItem{L: cols[i], R: cols[j]})
			} else {
				cols[i] = t.Val
				seen[t.Val] = i
			}
		}
	}
	var p plan.Node = &plan.View{Name: x.Rel, Cols: cols}
	if len(conds) > 0 {
		p = &plan.Select{Child: p, Cond: conds}
	}
	// Synthetic "·" columns linger; joins and projections drop them later
	// at no extra cost.
	if qs.p == nil {
		return p, nil
	}
	return c.join(qs.p, p)
}

// genConj handles case (4): Q1 ∧ Q2 with Q2 not a comparison.
func (c *Checker) genConj(qs *ctx, q1, q2 fo.Expr, needed map[string]bool) (plan.Node, error) {
	needed1 := unionSets(needed, toSet(q2.FreeVars()))
	needed2 := unionSets(needed, toSet(q1.FreeVars()))

	var firstErr error
	// (4a): Q2 is (a projection of) a base-relation atom reachable by a
	// fetch from Qs ∧ Q1's output.
	if at, w, ok := atomShape(q2, c.Views); ok {
		p1, err := c.gen(qs, q1, needed1)
		if err == nil {
			qs1 := qs.extended(q1, p1)
			p, err2 := c.genAtomFetch(qs1, at, w, needed2)
			if err2 == nil {
				return p, nil
			}
			firstErr = err2
		} else {
			firstErr = err
		}
	}
	// (4b): both conjuncts independently with Qs, then join.
	p1, err1 := c.gen(qs, q1, needed1)
	if err1 == nil {
		if p2, err2 := c.gen(qs, q2, needed2); err2 == nil {
			return c.join(p1, p2)
		} else if firstErr == nil {
			firstErr = err2
		}
	} else if firstErr == nil {
		firstErr = err1
	}
	// (4c): propagate Q1 into the context for Q2 (bounded by K).
	if err1 == nil && exprSize(q2) <= c.k() {
		qs1 := qs.extended(q1, p1)
		if p, err := c.gen(qs1, q2, needed); err == nil {
			return p, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	// Symmetric (4c) with the roles of Q1 and Q2 swapped.
	if p2, err2 := c.gen(qs, q2, needed2); err2 == nil && exprSize(q1) <= c.k() {
		qs2 := qs.extended(q2, p2)
		if p, err := c.gen(qs2, q1, needed); err == nil {
			return p, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("topped: no applicable conjunction case for %s ∧ %s", q1, q2)
	}
	return nil, firstErr
}

// genDisj handles case (5): Q1 ∨ Q2 with equal free variables.
func (c *Checker) genDisj(qs *ctx, q1, q2 fo.Expr, needed map[string]bool) (plan.Node, error) {
	f1, f2 := q1.FreeVars(), q2.FreeVars()
	if !sameStrings(f1, f2) {
		return nil, fmt.Errorf("topped: disjuncts have different free variables %v vs %v (unsafe)", f1, f2)
	}
	p1, err := c.gen(qs, q1, needed)
	if err != nil {
		return nil, err
	}
	p2, err := c.gen(qs, q2, needed)
	if err != nil {
		return nil, err
	}
	target := sortedUnion(qs.attrsSet(), toSet(f1))
	p1, err = c.projectTo(p1, target)
	if err != nil {
		return nil, err
	}
	p2, err = c.projectTo(p2, target)
	if err != nil {
		return nil, err
	}
	return &plan.Union{L: p1, R: p2}, nil
}

// genNegation handles case (6): Q1 ∧ ¬Q2 with equal free variables.
func (c *Checker) genNegation(qs *ctx, q1, q2 fo.Expr, needed map[string]bool) (plan.Node, error) {
	f1, f2 := q1.FreeVars(), q2.FreeVars()
	if !sameStrings(f1, f2) {
		return nil, fmt.Errorf("topped: negation with free variables %v differing from positive part %v (unsafe)", f2, f1)
	}
	target := sortedUnion(qs.attrsSet(), toSet(f1))
	p1, err := c.gen(qs, q1, unionSets(needed, toSet(f1)))
	if err != nil {
		return nil, err
	}
	// (6a): Q2 topped with Qs directly.
	if p2, err2 := c.gen(qs, q2, unionSets(needed, toSet(f2))); err2 == nil {
		l, errL := c.projectTo(p1, target)
		r, errR := c.projectTo(p2, target)
		if errL == nil && errR == nil {
			return &plan.Diff{L: l, R: r}, nil
		}
	}
	// (6b): Q1 ∧ ¬Q2 ≡ Q1 ∧ ¬(Q1 ∧ Q2), with Q1 ∧ Q2 topped (|Q2| ≤ K).
	if exprSize(q2) > c.k() {
		return nil, fmt.Errorf("topped: negated subquery exceeds K=%d", c.k())
	}
	p12, err := c.gen(qs, &fo.And{L: q1, R: q2}, unionSets(needed, toSet(f1)))
	if err != nil {
		return nil, err
	}
	l, err := c.projectTo(p1, target)
	if err != nil {
		return nil, err
	}
	r, err := c.projectTo(p12, target)
	if err != nil {
		return nil, err
	}
	return &plan.Diff{L: l, R: r}, nil
}

func (q *ctx) attrsSet() map[string]bool {
	out := map[string]bool{}
	for _, a := range q.attrs() {
		out[a] = true
	}
	return out
}

func (c *Checker) k() int {
	if c.K > 0 {
		return c.K
	}
	return DefaultK
}

func (c *Checker) freshAttr() string {
	c.fresh++
	return fmt.Sprintf("·%d", c.fresh)
}

// ---- helpers ----

// atomShape recognizes (projections of) base-relation atoms: A or ∃w̄ A.
func atomShape(e fo.Expr, views map[string]*cq.UCQ) (*fo.Atom, []string, bool) {
	switch x := e.(type) {
	case *fo.Atom:
		if _, isView := views[x.Rel]; isView {
			return nil, nil, false
		}
		return x, nil, true
	case *fo.Exists:
		if at, ok := x.E.(*fo.Atom); ok {
			if _, isView := views[at.Rel]; !isView {
				return at, x.Vars, true
			}
		}
	}
	return nil, nil, false
}

// projectTo projects (and reorders) a plan to exactly the target attributes;
// it fails if the plan lacks one of them. No node is added when the plan
// already has exactly the target attributes in order.
func (c *Checker) projectTo(p plan.Node, target []string) (plan.Node, error) {
	attrs := p.Attrs()
	if sameStrings(attrs, target) {
		return p, nil
	}
	for _, t := range target {
		if !inAttrs(attrs, t) {
			return nil, fmt.Errorf("topped: plan lacks required attribute %s (has %v)", t, attrs)
		}
	}
	return &plan.Project{Child: p, Cols: append([]string(nil), target...)}, nil
}

// dropAttrs removes the given attributes from the plan's output.
func (c *Checker) dropAttrs(p plan.Node, drop []string) (plan.Node, error) {
	ds := toSet(drop)
	var keep []string
	for _, a := range p.Attrs() {
		if !ds[a] {
			keep = append(keep, a)
		}
	}
	if len(keep) == len(p.Attrs()) {
		return p, nil
	}
	return &plan.Project{Child: p, Cols: keep}, nil
}

// join builds the natural join of two plans: a plain product when they
// share no attributes; otherwise ρ + × + σ + π (the paper's λ = 4 steps).
func (c *Checker) join(l, r plan.Node) (plan.Node, error) {
	la := l.Attrs()
	var shared []string
	for _, a := range r.Attrs() {
		if inAttrs(la, a) {
			shared = append(shared, a)
		}
	}
	if len(shared) == 0 {
		return &plan.Product{L: l, R: r}, nil
	}
	pairs := make([]plan.RenamePair, len(shared))
	renamed := make(map[string]string, len(shared))
	for i, a := range shared {
		na := c.freshAttr()
		pairs[i] = plan.RenamePair{From: a, To: na}
		renamed[a] = na
	}
	rr := pushRename(r, pairs)
	prod := &plan.Product{L: l, R: rr}
	conds := make([]plan.CondItem, len(shared))
	for i, a := range shared {
		conds[i] = plan.CondItem{L: a, R: renamed[a]}
	}
	sel := &plan.Select{Child: prod, Cond: conds}
	var keep []string
	for _, a := range prod.Attrs() {
		if !strings.HasPrefix(a, "·") {
			keep = append(keep, a)
		}
	}
	return &plan.Project{Child: sel, Cols: keep}, nil
}

// ---- small set utilities ----

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func unionSets(a, b map[string]bool) map[string]bool {
	out := cloneSet(a)
	for k := range b {
		out[k] = true
	}
	return out
}

func sortedUnion(a, b map[string]bool) []string {
	u := unionSets(a, b)
	out := make([]string, 0, len(u))
	for k := range u {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func setKey(s map[string]bool) string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func inAttrs(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func exprSize(e fo.Expr) int {
	n := 0
	fo.Walk(e, func(fo.Expr) { n++ })
	return n
}
