package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/intern"
)

// relation is an intermediate FO-evaluation result: a set of ID-encoded
// rows over named columns (sorted column order).
type relation struct {
	cols []string
	rows [][]uint32
}

// FOOnDB evaluates a safe-range FO query over the source with set
// semantics. Universal quantifiers and implications are desugared first.
// It returns an error when the formula falls outside the supported
// safe-range discipline (e.g. a negation whose free variables are not
// bound by a positive conjunct).
func FOOnDB(q *fo.Query, src *Source) ([][]string, error) {
	body := fo.Desugar(fo.Rectify(q.Body))
	rel, err := evalExpr(body, src)
	if err != nil {
		return nil, err
	}
	// Align columns to the head order.
	pos := make([]int, len(q.Head))
	for i, h := range q.Head {
		p := indexOfStr(rel.cols, h)
		if p < 0 {
			return nil, fmt.Errorf("eval: head variable %s not produced by the body", h)
		}
		pos[i] = p
	}
	seen := intern.NewSet(len(rel.rows))
	var out [][]uint32
	for _, r := range rel.rows {
		row := intern.Project(r, pos)
		if seen.Add(row) {
			out = append(out, row)
		}
	}
	return src.Dict().DecodeAll(out), nil
}

func evalExpr(e fo.Expr, src *Source) (*relation, error) {
	switch x := e.(type) {
	case *fo.Atom:
		return evalAtom(x, src)
	case *fo.Or:
		l, err := evalExpr(x.L, src)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(x.R, src)
		if err != nil {
			return nil, err
		}
		return unionRel(l, r)
	case *fo.Exists:
		inner, err := evalExpr(x.E, src)
		if err != nil {
			return nil, err
		}
		return projectOut(inner, x.Vars), nil
	case *fo.And:
		return evalAnd(conjunctList(x), src)
	case *fo.Cmp:
		// A bare comparison: only const=const is domain-independent.
		if x.L.Const && x.R.Const {
			ok := (x.L.Val == x.R.Val) != x.Neq
			rel := &relation{}
			if ok {
				rel.rows = [][]uint32{{}}
			}
			return rel, nil
		}
		return nil, fmt.Errorf("eval: comparison %s is not range-restricted outside a conjunction", x)
	case *fo.Not:
		// A bare negation of a closed formula.
		if len(x.E.FreeVars()) == 0 {
			inner, err := evalExpr(x.E, src)
			if err != nil {
				return nil, err
			}
			rel := &relation{}
			if len(inner.rows) == 0 {
				rel.rows = [][]uint32{{}}
			}
			return rel, nil
		}
		// Negation with free variables outside a conjunction: complement
		// relative to the active domain (classical active-domain
		// semantics; sound for domain-independent formulas such as the
		// size-bounded guards of Section 5.3).
		return complementRel(x.E, src)
	default:
		return nil, fmt.Errorf("eval: unsupported formula %T (desugar first)", e)
	}
}

// evalAnd evaluates a conjunction with the RANF discipline: positive
// relational conjuncts join first; equalities extend or filter;
// inequalities filter; negations anti-join once their variables are bound.
func evalAnd(conj []fo.Expr, src *Source) (*relation, error) {
	var positives []fo.Expr
	var cmps []*fo.Cmp
	var negs []fo.Expr
	for _, c := range conj {
		switch y := c.(type) {
		case *fo.Cmp:
			cmps = append(cmps, y)
		case *fo.Not:
			negs = append(negs, y.E)
		default:
			positives = append(positives, c)
		}
	}
	cur := &relation{rows: [][]uint32{{}}}
	var err error
	for _, p := range positives {
		var rel *relation
		rel, err = evalExpr(p, src)
		if err != nil {
			return nil, err
		}
		cur = joinRel(cur, rel)
	}
	// Apply equality extensions repeatedly until fixpoint, then filters.
	pending := append([]*fo.Cmp(nil), cmps...)
	for {
		progressed := false
		var rest []*fo.Cmp
		for _, c := range pending {
			applied, err2 := applyCmp(cur, c, src)
			if err2 != nil {
				return nil, err2
			}
			if applied {
				progressed = true
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		if len(pending) == 0 {
			break
		}
		if !progressed {
			return nil, fmt.Errorf("eval: comparison %s over unbound variables", pending[0])
		}
	}
	for _, neg := range negs {
		cur, err = antiJoin(cur, neg, src)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// applyCmp applies one comparison to the relation if its variables permit:
// filter when both sides are bound (or constants); extend when an equality
// has exactly one bound/constant side. Returns false when neither side is
// available yet.
func applyCmp(cur *relation, c *fo.Cmp, src *Source) (bool, error) {
	d := src.Dict()
	lBound := c.L.Const || indexOfStr(cur.cols, c.L.Val) >= 0
	rBound := c.R.Const || indexOfStr(cur.cols, c.R.Val) >= 0
	val := func(row []uint32, t cq.Term) uint32 {
		if t.Const {
			return d.ID(t.Val)
		}
		return row[indexOfStr(cur.cols, t.Val)]
	}
	switch {
	case lBound && rBound:
		var kept [][]uint32
		for _, r := range cur.rows {
			if (val(r, c.L) == val(r, c.R)) != c.Neq {
				kept = append(kept, r)
			}
		}
		cur.rows = kept
		return true, nil
	case c.Neq:
		return false, nil // ≠ can only filter
	case lBound && !rBound:
		cur.cols = append(cur.cols, c.R.Val)
		for i, r := range cur.rows {
			cur.rows[i] = append(r, val(r, c.L))
		}
		return true, nil
	case rBound && !lBound:
		cur.cols = append(cur.cols, c.L.Val)
		for i, r := range cur.rows {
			cur.rows[i] = append(r, val(r, c.R))
		}
		return true, nil
	default:
		return false, nil
	}
}

// antiJoin removes rows for which the negated formula holds. The negated
// formula's free variables must all be bound by cur (safe-range condition).
func antiJoin(cur *relation, neg fo.Expr, src *Source) (*relation, error) {
	fv := neg.FreeVars()
	pos := make([]int, len(fv))
	for i, v := range fv {
		p := indexOfStr(cur.cols, v)
		if p < 0 {
			return nil, fmt.Errorf("eval: negation variable %s not bound by positive part", v)
		}
		pos[i] = p
	}
	rel, err := evalExpr(neg, src)
	if err != nil {
		return nil, err
	}
	// Key the negated relation on fv order.
	npos := make([]int, len(fv))
	for i, v := range fv {
		p := indexOfStr(rel.cols, v)
		if p < 0 {
			return nil, fmt.Errorf("eval: negated formula does not produce variable %s", v)
		}
		npos[i] = p
	}
	bad := intern.NewSet(len(rel.rows))
	for _, r := range rel.rows {
		bad.AddProj(r, npos)
	}
	var kept [][]uint32
	for _, r := range cur.rows {
		if !bad.HasAt(r, pos) {
			kept = append(kept, r)
		}
	}
	return &relation{cols: cur.cols, rows: kept}, nil
}

// maxComplementRows caps the size of active-domain complements.
const maxComplementRows = 4_000_000

// complementRel evaluates ¬E over the active domain: it enumerates all
// assignments of E's free variables over the active domain and keeps those
// under which E is false, deciding E by direct model checking. This is the
// classical active-domain semantics; it is sound for domain-independent
// formulas such as the size-bounded guards of Section 5.3.
func complementRel(e fo.Expr, src *Source) (*relation, error) {
	fv := e.FreeVars()
	dom := activeDomain(src)
	total := 1
	for range fv {
		if total > maxComplementRows/max(1, len(dom)) {
			return nil, fmt.Errorf("eval: active-domain complement of %s too large", e)
		}
		total *= max(1, len(dom))
	}
	mc := newModelChecker(src, dom)
	out := &relation{cols: fv}
	bind := map[string]uint32{}
	row := make([]uint32, len(fv))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(fv) {
			ok, err := mc.holds(e, bind)
			if err != nil {
				return err
			}
			if !ok {
				out.rows = append(out.rows, append([]uint32(nil), row...))
			}
			return nil
		}
		for _, v := range dom {
			row[i] = v
			bind[fv[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(bind, fv[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// modelChecker decides FO formulas under complete variable bindings over
// the active domain. Values are interned IDs throughout.
type modelChecker struct {
	src  *Source
	dom  []uint32
	rels map[string]*intern.Set // relation -> ID-row set
}

func newModelChecker(src *Source, dom []uint32) *modelChecker {
	return &modelChecker{src: src, dom: dom, rels: map[string]*intern.Set{}}
}

func (m *modelChecker) rowSet(rel string) (*intern.Set, error) {
	if s, ok := m.rels[rel]; ok {
		return s, nil
	}
	rows, ok := m.src.IDRows(rel)
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %s", rel)
	}
	s := intern.NewSet(len(rows))
	for _, r := range rows {
		s.Add(r)
	}
	m.rels[rel] = s
	return s, nil
}

// holds decides e under bind; every free variable of e must be bound.
func (m *modelChecker) holds(e fo.Expr, bind map[string]uint32) (bool, error) {
	resolve := func(t cq.Term) (uint32, error) {
		if t.Const {
			return m.src.Dict().ID(t.Val), nil
		}
		v, ok := bind[t.Val]
		if !ok {
			return 0, fmt.Errorf("eval: unbound variable %s in model check", t.Val)
		}
		return v, nil
	}
	switch x := e.(type) {
	case *fo.Atom:
		set, err := m.rowSet(x.Rel)
		if err != nil {
			return false, err
		}
		row := make([]uint32, len(x.Args))
		for i, t := range x.Args {
			v, err := resolve(t)
			if err != nil {
				return false, err
			}
			row[i] = v
		}
		return set.Has(row), nil
	case *fo.Cmp:
		l, err := resolve(x.L)
		if err != nil {
			return false, err
		}
		r, err := resolve(x.R)
		if err != nil {
			return false, err
		}
		return (l == r) != x.Neq, nil
	case *fo.And:
		ok, err := m.holds(x.L, bind)
		if err != nil || !ok {
			return false, err
		}
		return m.holds(x.R, bind)
	case *fo.Or:
		ok, err := m.holds(x.L, bind)
		if err != nil || ok {
			return ok, err
		}
		return m.holds(x.R, bind)
	case *fo.Not:
		ok, err := m.holds(x.E, bind)
		return !ok, err
	case *fo.Implies:
		ok, err := m.holds(x.A, bind)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		return m.holds(x.B, bind)
	case *fo.Exists:
		return m.quant(x.Vars, x.E, bind, false)
	case *fo.Forall:
		return m.quant(x.Vars, x.E, bind, true)
	default:
		return false, fmt.Errorf("eval: unknown formula %T", e)
	}
}

// quant enumerates assignments for the quantified variables; forall=false
// searches for a witness, forall=true for a counterexample.
func (m *modelChecker) quant(vars []string, e fo.Expr, bind map[string]uint32, forall bool) (bool, error) {
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(vars) {
			ok, err := m.holds(e, bind)
			if err != nil {
				return false, err
			}
			return ok != forall, nil // witness (∃) or counterexample (∀)
		}
		saved, had := bind[vars[i]]
		for _, v := range m.dom {
			bind[vars[i]] = v
			found, err := rec(i + 1)
			if err != nil {
				return false, err
			}
			if found {
				if had {
					bind[vars[i]] = saved
				} else {
					delete(bind, vars[i])
				}
				return true, nil
			}
		}
		if had {
			bind[vars[i]] = saved
		} else {
			delete(bind, vars[i])
		}
		return false, nil
	}
	found, err := rec(0)
	if err != nil {
		return false, err
	}
	return found != forall, nil // ∃: found witness; ∀: no counterexample
}

// activeDomain collects every value in the source (database and views) as
// interned IDs, sorted by string value for deterministic enumeration.
func activeDomain(src *Source) []uint32 {
	d := src.Dict()
	seen := map[uint32]bool{}
	var out []uint32
	add := func(rows [][]uint32) {
		for _, r := range rows {
			for _, v := range r {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	if src.DB != nil {
		for _, t := range src.DB.Tables {
			add(t.IDRows())
		}
	}
	for name := range src.Views {
		if rows, ok := src.IDRows(name); ok {
			add(rows)
		}
	}
	// Decode once (a single lock acquisition) and sort by the cached
	// strings instead of hitting the shared dictionary per comparison.
	names := d.Decode(out)
	sort.Sort(&domainSorter{ids: out, names: names})
	return out
}

// domainSorter sorts interned domain IDs by their string values, keeping
// the two slices aligned.
type domainSorter struct {
	ids   []uint32
	names []string
}

func (s *domainSorter) Len() int           { return len(s.ids) }
func (s *domainSorter) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *domainSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.names[i], s.names[j] = s.names[j], s.names[i]
}

func evalAtom(a *fo.Atom, src *Source) (*relation, error) {
	rows, ok := src.IDRows(a.Rel)
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %s", a.Rel)
	}
	d := src.Dict()
	// Distinct variables in order of first occurrence.
	var cols []string
	var colPos []int
	first := map[string]int{}
	consts := make([]uint32, len(a.Args))
	for i, t := range a.Args {
		if t.Const {
			consts[i] = d.ID(t.Val)
			continue
		}
		if _, dup := first[t.Val]; !dup {
			first[t.Val] = i
			cols = append(cols, t.Val)
			colPos = append(colPos, i)
		}
	}
	out := &relation{cols: cols}
	seen := intern.NewSet(0) // constants typically filter most rows away
rowLoop:
	for _, r := range rows {
		if len(r) != len(a.Args) {
			continue
		}
		for i, t := range a.Args {
			if t.Const {
				if r[i] != consts[i] {
					continue rowLoop
				}
			} else if r[i] != r[first[t.Val]] {
				continue rowLoop
			}
		}
		row := intern.Project(r, colPos)
		if seen.Add(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func joinRel(l, r *relation) *relation {
	// Natural join on shared columns.
	var lpos, rpos []int
	for i, c := range r.cols {
		if p := indexOfStr(l.cols, c); p >= 0 {
			lpos = append(lpos, p)
			rpos = append(rpos, i)
		}
	}
	var extraCols []string
	var extraPos []int
	for i, c := range r.cols {
		if indexOfStr(l.cols, c) < 0 {
			extraCols = append(extraCols, c)
			extraPos = append(extraPos, i)
		}
	}
	index := intern.NewDynIndex(rpos)
	for _, row := range r.rows {
		index.Add(row)
	}
	out := &relation{cols: append(append([]string{}, l.cols...), extraCols...)}
	for _, lrow := range l.rows {
		for _, rrow := range index.GetAt(lrow, lpos) {
			row := make([]uint32, 0, len(lrow)+len(extraPos))
			row = append(row, lrow...)
			for _, p := range extraPos {
				row = append(row, rrow[p])
			}
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func unionRel(l, r *relation) (*relation, error) {
	ls := append([]string(nil), l.cols...)
	rs := append([]string(nil), r.cols...)
	sort.Strings(ls)
	sort.Strings(rs)
	if strings.Join(ls, ",") != strings.Join(rs, ",") {
		return nil, fmt.Errorf("eval: union of incompatible column sets %v and %v", l.cols, r.cols)
	}
	pos := make([]int, len(l.cols))
	for i, c := range l.cols {
		pos[i] = indexOfStr(r.cols, c)
	}
	seen := intern.NewSet(len(l.rows) + len(r.rows))
	out := &relation{cols: l.cols}
	for _, row := range l.rows {
		if seen.Add(row) {
			out.rows = append(out.rows, row)
		}
	}
	for _, rr := range r.rows {
		row := intern.Project(rr, pos)
		if seen.Add(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func projectOut(rel *relation, vars []string) *relation {
	drop := map[string]bool{}
	for _, v := range vars {
		drop[v] = true
	}
	var cols []string
	var pos []int
	for i, c := range rel.cols {
		if !drop[c] {
			cols = append(cols, c)
			pos = append(pos, i)
		}
	}
	out := &relation{cols: cols}
	seen := intern.NewSet(len(rel.rows))
	for _, r := range rel.rows {
		row := intern.Project(r, pos)
		if seen.Add(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func conjunctList(e fo.Expr) []fo.Expr {
	if a, ok := e.(*fo.And); ok {
		return append(conjunctList(a.L), conjunctList(a.R)...)
	}
	return []fo.Expr{e}
}

func indexOfStr(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}
