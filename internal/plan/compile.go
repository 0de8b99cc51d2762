package plan

import (
	"fmt"
	"sync"

	"repro/internal/access"
)

// Program is a plan compiled for execution: its operators in post-order
// (inputs first, the root last), with every attribute name resolved to a
// row position, every selection to position comparisons, equality
// selections over products to hash joins, and each distinct constant to
// one entry of a table. A run resolves only what its epoch fixes: the
// constants' IDs, by dictionary lookup, and the views' versions. A
// compiled Program never changes; any number of goroutines may run it.
type Program struct {
	ops    []op
	consts []string
	ints   []int    // backing of the ops' position lists
	conds  []cond   // backing of the ops' conditions
	attrs  []string // while compiling: the compiled ops' output attributes, stacked
	err    error    // while compiling: the first fault found
}

type opKind uint8

const (
	opConst   opKind = iota // the row (consts[val])
	opView                  // view's rows
	opFetch                 // fetch through c of l's distinct rows at pos (of one empty key without l)
	opProject               // l's rows at pos
	opFilter                // l's rows satisfying conds
	opJoin                  // l ⋈ r on l's pos = r's rpos, filtered by conds
	opProduct               // l × r
	opUnion                 // l ∪ r, as a bag
	opDiff                  // l \ r
)

type op struct {
	kind       opKind
	l, r       int // input ops, -1 when absent
	val        int
	view       *View
	c          *access.Constraint
	pos, rpos  []int
	lkey, rkey string // opJoin: posKey of pos (rpos) when l (r) is a view scan
	conds      []cond
}

// cond is a CondItem with attribute names resolved to row positions:
// lpos op (rpos | the constant consts[val]), flipped by neq.
type cond struct {
	lpos, rpos int // rpos is -1 when the right side is a constant
	val        int
	neq        bool
}

// Compile resolves plan n into a Program. It fails on the faults the
// plan's shape fixes: an attribute an input lacks, operands of different
// arity, fetch output names that do not match the constraint. Faults of
// the data a run reads — a view that is not materialized, or whose rows
// have another width — are the run's errors.
func Compile(n Node) (*Program, error) {
	p := &Program{}
	if p.node(n); p.err != nil {
		return nil, p.err
	}
	p.attrs = nil
	return p, nil
}

// programs pools the programs compiled for one use — a run of a caller's
// plan, which may change between calls, or a cost estimate — whose slices
// a later use reuses.
var programs = sync.Pool{New: func() any { return new(Program) }}

// pooled compiles n into a pooled program, whose err reports a fault.
// Release it after use.
func pooled(n Node) *Program {
	p := programs.Get().(*Program)
	p.node(n)
	return p
}

// release empties the program and returns it to the pool.
func (p *Program) release() {
	clear(p.ops)
	clear(p.consts)
	clear(p.attrs)
	p.ops, p.consts, p.ints, p.conds, p.attrs, p.err = p.ops[:0], p.consts[:0], p.ints[:0], p.conds[:0], p.attrs[:0], nil
	programs.Put(p)
}

func (p *Program) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *Program) emit(o op) int {
	p.ops = append(p.ops, o)
	return len(p.ops) - 1
}

// constant returns the index of v in the constant table.
func (p *Program) constant(v string) int {
	for i, c := range p.consts {
		if c == v {
			return i
		}
	}
	p.consts = append(p.consts, v)
	return len(p.consts) - 1
}

// node compiles n's subtree, leaves n's output attributes on top of
// p.attrs and returns the index of the op computing n. A renaming is no
// op: it renames its input's attributes on the stack.
func (p *Program) node(n Node) int {
	s := len(p.attrs)
	switch x := n.(type) {
	case *Const:
		p.attrs = append(p.attrs, x.Attr)
		return p.emit(op{kind: opConst, l: -1, r: -1, val: p.constant(x.Val)})
	case *View:
		p.attrs = append(p.attrs, x.Cols...)
		return p.emit(op{kind: opView, l: -1, r: -1, view: x})
	case *Rename:
		i := p.node(x.Child)
		for j, a := range p.attrs[s:] {
			for _, pr := range x.Pairs {
				if pr.From == a {
					p.attrs[s+j] = pr.To
					break
				}
			}
		}
		return i
	case *Fetch:
		o := op{kind: opFetch, l: -1, r: -1, c: x.C}
		if x.Child != nil {
			o.l = p.node(x.Child)
			o.pos = p.positions(p.attrs[s:], x.InBind(), "fetch child")
		}
		if x.As != nil && len(x.As) != len(x.C.XY()) {
			p.fail("plan: fetch names %d outputs for %d-column tuples", len(x.As), len(x.C.XY()))
		}
		p.attrs = append(p.attrs[:s], x.OutNames()...)
		return p.emit(o)
	case *Project:
		o := op{kind: opProject, l: p.node(x.Child), r: -1}
		o.pos = p.positions(p.attrs[s:], x.Cols, "projection input")
		p.attrs = append(p.attrs[:s], x.Cols...)
		return p.emit(o)
	case *Select:
		if prod, ok := x.Child.(*Product); ok {
			return p.join(x, prod)
		}
		o := op{kind: opFilter, l: p.node(x.Child), r: -1}
		o.conds = p.resolve(x.Cond, p.attrs[s:], nil, nil)
		return p.emit(o)
	case *Product:
		return p.emit(p.pair(opProduct, x.L, x.R))
	case *Union:
		return p.emit(p.pair(opUnion, x.L, x.R))
	case *Diff:
		return p.emit(p.pair(opDiff, x.L, x.R))
	}
	p.fail("plan: unknown node type %T", n)
	return p.emit(op{kind: opConst, l: -1, r: -1, val: p.constant("")})
}

// pair compiles the inputs of a binary op and returns the op, not yet
// emitted. A union's or a difference's output attributes are L's.
func (p *Program) pair(kind opKind, ln, rn Node) op {
	s := len(p.attrs)
	l := p.node(ln)
	m := len(p.attrs)
	o := op{kind: kind, l: l, r: p.node(rn)}
	if nl, nr := m-s, len(p.attrs)-m; nl != nr && kind != opProduct {
		p.fail("plan: %s children have arities %d and %d", [...]string{opUnion: "union", opDiff: "difference"}[kind], nl, nr)
	}
	if kind != opProduct {
		p.attrs = p.attrs[:m]
	}
	return o
}

// join compiles σ_Cond(L × R). When every condition is an equality and one
// of them equates an attribute of L with one of R, it runs as a hash join:
// same semantics, linear instead of quadratic time. This matters because
// cached views may be large even when fetches are bounded. Any other
// selection filters the product.
func (p *Program) join(sel *Select, prod *Product) int {
	s := len(p.attrs)
	l := p.node(prod.L)
	m := len(p.attrs)
	o := op{kind: opProduct, l: l, r: p.node(prod.R)}
	attrs, la, ra := p.attrs[s:], p.attrs[s:m], p.attrs[m:]
	start := len(p.ints)
	for _, c := range sel.Cond {
		if c.Neq {
			p.ints = p.ints[:start]
			break
		}
		if li, _, ok := crossPos(c, la, ra); ok {
			p.ints = append(p.ints, li)
		}
	}
	keys := len(p.ints) - start
	if keys == 0 {
		f := op{kind: opFilter, l: p.emit(o), r: -1}
		f.conds = p.resolve(sel.Cond, attrs, nil, nil)
		return p.emit(f)
	}
	for _, c := range sel.Cond {
		if _, ri, ok := crossPos(c, la, ra); ok {
			p.ints = append(p.ints, ri)
		}
	}
	o.kind, o.pos, o.rpos = opJoin, p.ints[start:start+keys:start+keys], p.ints[start+keys:len(p.ints):len(p.ints)]
	if p.ops[o.l].kind == opView {
		o.lkey = posKey(o.pos)
	}
	if p.ops[o.r].kind == opView {
		o.rkey = posKey(o.rpos)
	}
	o.conds = p.resolve(sel.Cond, attrs, la, ra)
	return p.emit(o)
}

// crossPos resolves c when it equates an attribute of la with one of ra,
// returning their positions.
func crossPos(c CondItem, la, ra []string) (li, ri int, ok bool) {
	if c.RConst || c.Neq {
		return 0, 0, false
	}
	if li, ri = indexOf(la, c.L), indexOf(ra, c.R); li >= 0 && ri >= 0 {
		return li, ri, true
	}
	li, ri = indexOf(la, c.R), indexOf(ra, c.L)
	return li, ri, li >= 0 && ri >= 0
}

// resolve compiles the conditions over rows with attributes attrs,
// skipping the key equalities of a join of sides la and ra.
func (p *Program) resolve(items []CondItem, attrs, la, ra []string) []cond {
	s := len(p.conds)
	for _, c := range items {
		if _, _, key := crossPos(c, la, ra); key {
			continue
		}
		rc := cond{lpos: indexOf(attrs, c.L), rpos: -1, neq: c.Neq}
		if c.RConst {
			rc.val = p.constant(c.R)
		} else if rc.rpos = indexOf(attrs, c.R); rc.rpos < 0 {
			p.fail("plan: selection input lacks attribute %s", c.R)
		}
		if rc.lpos < 0 {
			p.fail("plan: selection input lacks attribute %s", c.L)
		}
		p.conds = append(p.conds, rc)
	}
	return p.conds[s:len(p.conds):len(p.conds)]
}

// positions resolves each of names to its position in attrs, failing on
// a name what (the input being read) lacks.
func (p *Program) positions(attrs, names []string, what string) []int {
	s := len(p.ints)
	for _, a := range names {
		i := indexOf(attrs, a)
		if i < 0 {
			p.fail("plan: %s lacks attribute %s", what, a)
		}
		p.ints = append(p.ints, i)
	}
	return p.ints[s:len(p.ints):len(p.ints)]
}

func indexOf(xs []string, a string) int {
	for i, x := range xs {
		if x == a {
			return i
		}
	}
	return -1
}
