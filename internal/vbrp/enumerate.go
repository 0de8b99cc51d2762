// Package vbrp implements the bounded rewriting problem VBRP(L) of
// Section 3 and its cross-language variant VBRP+(L1, L2) of Section 6:
// given a database schema R, an access schema A, a set V of views, a bound
// M and a query Q, decide whether Q has an M-bounded rewriting in L using
// V under A — and produce the witnessing plan.
//
// The decision procedure mirrors the Σp3 upper-bound algorithm of
// Theorem 3.1: enumerate candidate plans of size at most M (the guess),
// keep those that conform to A (the PNP step, via package boundedness),
// and test A-equivalence with Q (the Πp2 step, via element queries). The
// enumeration works over *positional shapes* — plans whose selections,
// projections and fetch bindings refer to column positions — which
// represent the paper's plans faithfully while making renaming ρ
// unnecessary (names are bookkeeping); any plan using ρ has an equivalent
// shape of no larger size, so deciding over shapes is sound and complete
// for the M-bound.
package vbrp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/schema"
)

// Problem fixes the parameters (R, A, V, M) of a VBRP instance.
type Problem struct {
	S     *schema.Schema
	A     *access.Schema
	Views map[string]*cq.UCQ
	M     int
	Lang  plan.Language // the target plan language (L, or L2 for VBRP+)

	// Consts are the constants plans may use; the definition restricts
	// them to the constants of Q.
	Consts []string

	// Enumeration limits (defaults applied when zero).
	MaxArity       int // maximum node arity considered (default 4)
	MaxSelectConds int // maximum comparisons per σ node (default 4)
	MaxShapes      int // cap on generated shapes; exceeded => ErrSearchTruncated
	MaxCandidates  int // cap on candidates Candidates collects (default DefaultMaxCandidates)
}

// ErrSearchTruncated reports that the shape cap was hit: a "no" answer is
// then unreliable.
var ErrSearchTruncated = fmt.Errorf("vbrp: candidate plan enumeration truncated")

type opKind int

const (
	opConst opKind = iota
	opView
	opFetch
	opProject
	opSelect
	opProduct
	opUnion
	opDiff
)

// shapeCond is a positional selection condition.
type shapeCond struct {
	l      int
	rConst bool
	rPos   int
	rVal   string
	neq    bool
}

// shape is a positional plan candidate.
type shape struct {
	op    opKind
	cst   string
	view  string
	c     *access.Constraint
	bind  []int // fetch: child positions feeding C.X, in C.X order
	proj  []int
	conds []shapeCond
	kids  []*shape

	arity int
	size  int
	canon string
}

func (s *shape) key() string {
	if s.canon != "" {
		return s.canon
	}
	var b strings.Builder
	var rec func(s *shape)
	rec = func(s *shape) {
		fmt.Fprintf(&b, "%d", s.op)
		switch s.op {
		case opConst:
			b.WriteString(s.cst)
		case opView:
			b.WriteString(s.view)
		case opFetch:
			b.WriteString(s.c.Key())
			fmt.Fprintf(&b, "%v", s.bind)
		case opProject:
			fmt.Fprintf(&b, "%v", s.proj)
		case opSelect:
			fmt.Fprintf(&b, "%v", s.conds)
		}
		b.WriteByte('(')
		for _, k := range s.kids {
			rec(k)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	rec(s)
	s.canon = b.String()
	return s.canon
}

func (p *Problem) maxArity() int {
	if p.MaxArity > 0 {
		return p.MaxArity
	}
	return 4
}

func (p *Problem) maxConds() int {
	if p.MaxSelectConds > 0 {
		return p.MaxSelectConds
	}
	return 4
}

func (p *Problem) maxShapes() int {
	if p.MaxShapes > 0 {
		return p.MaxShapes
	}
	return 400_000
}

// DefaultMaxCandidates is the candidate cap Candidates applies when
// Problem.MaxCandidates is zero. A frontier of that many plans may be
// incomplete: the enumeration stopped at the cap.
const DefaultMaxCandidates = 64

func (p *Problem) maxCandidates() int {
	if p.MaxCandidates > 0 {
		return p.MaxCandidates
	}
	return DefaultMaxCandidates
}

// viewArity resolves a view's head arity.
func (p *Problem) viewArity(name string) int {
	def := p.Views[name]
	if def == nil || len(def.Disjuncts) == 0 {
		return -1
	}
	return len(def.Disjuncts[0].Head)
}

// Enumerate generates all candidate shapes of size ≤ M in the problem's
// language, deduplicated. It returns ErrSearchTruncated (with the partial
// result) when the cap is exceeded.
func (p *Problem) Enumerate() ([]*shape, error) {
	bySize := make([][]*shape, p.M+1)
	seen := map[string]bool{}
	total := 0
	add := func(s *shape, size int) bool {
		if s.arity > p.maxArity() {
			return true
		}
		k := s.key()
		if seen[k] {
			return true
		}
		if total >= p.maxShapes() {
			return false
		}
		seen[k] = true
		s.size = size
		bySize[size] = append(bySize[size], s)
		total++
		return true
	}

	// Size 1: constants, views, input-free fetches.
	if p.M >= 1 {
		for _, c := range p.Consts {
			if !add(&shape{op: opConst, cst: c, arity: 1}, 1) {
				return flatten(bySize), ErrSearchTruncated
			}
		}
		for name := range p.Views {
			ar := p.viewArity(name)
			if ar < 0 {
				continue
			}
			if !add(&shape{op: opView, view: name, arity: ar}, 1) {
				return flatten(bySize), ErrSearchTruncated
			}
		}
		for _, c := range p.A.Constraints {
			if len(c.X) == 0 {
				if !add(&shape{op: opFetch, c: c, arity: len(c.XY())}, 1) {
					return flatten(bySize), ErrSearchTruncated
				}
			}
		}
	}

	for size := 2; size <= p.M; size++ {
		// Unary operations over shapes of size-1.
		for _, child := range bySize[size-1] {
			for _, s := range p.unaryExtensions(child) {
				if !add(s, size) {
					return flatten(bySize), ErrSearchTruncated
				}
			}
		}
		// Binary operations.
		for ls := 1; ls <= size-2; ls++ {
			rs := size - 1 - ls
			for _, l := range bySize[ls] {
				for _, r := range bySize[rs] {
					for _, s := range p.binaryExtensions(l, r) {
						if !add(s, size) {
							return flatten(bySize), ErrSearchTruncated
						}
					}
				}
			}
		}
	}
	return flatten(bySize), nil
}

func flatten(bySize [][]*shape) []*shape {
	var out []*shape
	for _, ss := range bySize {
		out = append(out, ss...)
	}
	return out
}

// unaryExtensions generates the unary-operation extensions of a shape.
// Several algebraic prunes keep the search complete while cutting volume:
// π over π and σ over σ compose into a single smaller node, so such
// stacks are never generated; contradictory constant selections are
// dropped (a smaller empty plan always exists).
func (p *Problem) unaryExtensions(child *shape) []*shape {
	var out []*shape
	a := child.arity

	// Projections: every proper subset of positions (including the empty
	// projection for Boolean plans), order-normalized ascending. A π child
	// would compose into one node: prune.
	if child.op != opProject {
		for mask := 0; mask < (1 << a); mask++ {
			if mask == (1<<a)-1 && a > 0 {
				continue // identity projection is useless
			}
			var proj []int
			for i := 0; i < a; i++ {
				if mask&(1<<i) != 0 {
					proj = append(proj, i)
				}
			}
			out = append(out, &shape{op: opProject, proj: proj, kids: []*shape{child}, arity: len(proj)})
		}
	}

	// Selections: subsets of candidate conditions up to the cap. A σ child
	// would compose into one node: prune. Cond sets equating one position
	// with two distinct constants are empty plans: prune (a smaller empty
	// plan exists).
	if child.op != opSelect && child.op != opConst {
		var cands []shapeCond
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				cands = append(cands, shapeCond{l: i, rPos: j})
				if p.Lang == plan.LangFO {
					cands = append(cands, shapeCond{l: i, rPos: j, neq: true})
				}
			}
			for _, c := range p.Consts {
				cands = append(cands, shapeCond{l: i, rConst: true, rVal: c})
				if p.Lang == plan.LangFO {
					cands = append(cands, shapeCond{l: i, rConst: true, rVal: c, neq: true})
				}
			}
		}
		maxC := p.maxConds()
		constOf := make(map[int]string, a)
		var pick func(start int, cur []shapeCond)
		pick = func(start int, cur []shapeCond) {
			if len(cur) > 0 {
				conds := append([]shapeCond(nil), cur...)
				out = append(out, &shape{op: opSelect, conds: conds, kids: []*shape{child}, arity: a})
			}
			if len(cur) == maxC {
				return
			}
			for i := start; i < len(cands); i++ {
				c := cands[i]
				if c.rConst && !c.neq {
					if prev, ok := constOf[c.l]; ok && prev != c.rVal {
						continue // contradictory constant equalities
					}
					constOf[c.l] = c.rVal
					pick(i+1, append(cur, c))
					delete(constOf, c.l)
					continue
				}
				pick(i+1, append(cur, c))
			}
		}
		pick(0, nil)
	}

	// Fetches: constraints whose |X| equals the child's arity, with every
	// injective binding of child positions to X attributes.
	for _, c := range p.A.Constraints {
		if len(c.X) == 0 || len(c.X) != a {
			continue
		}
		if len(c.XY()) > p.maxArity() {
			continue
		}
		perms := permutations(a)
		for _, bind := range perms {
			out = append(out, &shape{op: opFetch, c: c, bind: bind, kids: []*shape{child}, arity: len(c.XY())})
		}
	}
	return out
}

// binaryExtensions generates products, unions and differences.
// Associativity prunes keep × and ∪ right-deep (any other association has
// an equal-size equivalent, modulo position remapping); ∪ additionally
// drops identical operands (idempotence) and fixes the operand order of
// adjacent operands via the canonical key (commutativity); x \ x is empty
// (a smaller empty plan exists).
func (p *Problem) binaryExtensions(l, r *shape) []*shape {
	var out []*shape
	if l.arity+r.arity <= p.maxArity() && l.op != opProduct {
		out = append(out, &shape{op: opProduct, kids: []*shape{l, r}, arity: l.arity + r.arity})
	}
	if l.arity == r.arity {
		if p.Lang != plan.LangCQ && l.op != opUnion && l.key() != r.key() {
			next := r.key()
			if h, ok := headOfUnionChain(r); ok {
				next = h
			}
			if l.key() < next {
				out = append(out, &shape{op: opUnion, kids: []*shape{l, r}, arity: l.arity})
			}
		}
		if p.Lang == plan.LangFO && l.key() != r.key() {
			out = append(out, &shape{op: opDiff, kids: []*shape{l, r}, arity: l.arity})
		}
	}
	return out
}

// headOfUnionChain returns the key of the first operand of a right-deep
// union chain, for the commutativity ordering prune.
func headOfUnionChain(s *shape) (string, bool) {
	if s.op != opUnion {
		return "", false
	}
	return s.kids[0].key(), true
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// Materialize converts a shape into a named plan; every node's output
// columns receive globally unique generated names.
func (p *Problem) Materialize(s *shape) (plan.Node, error) {
	counter := 0
	freshCols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			counter++
			out[i] = "n" + strconv.Itoa(counter)
		}
		return out
	}
	var rec func(s *shape) (plan.Node, error)
	rec = func(s *shape) (plan.Node, error) {
		switch s.op {
		case opConst:
			return &plan.Const{Attr: freshCols(1)[0], Val: s.cst}, nil
		case opView:
			ar := p.viewArity(s.view)
			if ar < 0 {
				return nil, fmt.Errorf("vbrp: view %s undefined", s.view)
			}
			return &plan.View{Name: s.view, Cols: freshCols(ar)}, nil
		case opFetch:
			as := freshCols(len(s.c.XY()))
			if len(s.kids) == 0 {
				return &plan.Fetch{C: s.c, As: as}, nil
			}
			child, err := rec(s.kids[0])
			if err != nil {
				return nil, err
			}
			attrs := child.Attrs()
			bind := make([]string, len(s.bind))
			for i, pos := range s.bind {
				bind[i] = attrs[pos]
			}
			return &plan.Fetch{Child: child, C: s.c, Bind: bind, As: as}, nil
		case opProject:
			child, err := rec(s.kids[0])
			if err != nil {
				return nil, err
			}
			attrs := child.Attrs()
			cols := make([]string, len(s.proj))
			for i, pos := range s.proj {
				cols[i] = attrs[pos]
			}
			return &plan.Project{Child: child, Cols: cols}, nil
		case opSelect:
			child, err := rec(s.kids[0])
			if err != nil {
				return nil, err
			}
			attrs := child.Attrs()
			conds := make([]plan.CondItem, len(s.conds))
			for i, c := range s.conds {
				if c.rConst {
					conds[i] = plan.CondItem{L: attrs[c.l], RConst: true, R: c.rVal, Neq: c.neq}
				} else {
					conds[i] = plan.CondItem{L: attrs[c.l], R: attrs[c.rPos], Neq: c.neq}
				}
			}
			return &plan.Select{Child: child, Cond: conds}, nil
		case opProduct, opUnion, opDiff:
			l, err := rec(s.kids[0])
			if err != nil {
				return nil, err
			}
			r, err := rec(s.kids[1])
			if err != nil {
				return nil, err
			}
			switch s.op {
			case opProduct:
				return &plan.Product{L: l, R: r}, nil
			case opUnion:
				return &plan.Union{L: l, R: r}, nil
			default:
				return &plan.Diff{L: l, R: r}, nil
			}
		}
		return nil, fmt.Errorf("vbrp: unknown shape op %d", s.op)
	}
	n, err := rec(s)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(n, p.S); err != nil {
		return nil, err
	}
	return n, nil
}

// sortConsts normalizes the constant pool.
func (p *Problem) normalize() {
	sort.Strings(p.Consts)
	w := 0
	for i, c := range p.Consts {
		if i == 0 || p.Consts[i-1] != c {
			p.Consts[w] = c
			w++
		}
	}
	p.Consts = p.Consts[:w]
}
