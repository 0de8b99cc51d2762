package cq

import (
	"repro/internal/intern"
)

// FrozenPrefix marks frozen variables in canonical (tableau) instances.
// User-supplied constants never start with a NUL byte, so frozen values
// cannot collide with real constants.
const FrozenPrefix = "\x00v:"

// FreezeVar returns the frozen-constant encoding of variable v.
func FreezeVar(v string) string { return FrozenPrefix + v }

// Tableau is the canonical instance T_Q of a (normalized) CQ: every atom
// becomes a tuple, with variables frozen as constants. Head is the frozen
// summary ū.
type Tableau struct {
	Rows map[string][][]string // relation name -> tuples
	Head []string              // frozen head terms
}

// Freeze builds the tableau of q. The query must be normalized (no
// equality conditions); Freeze normalizes it first and returns an error
// only via ok=false when the query is inconsistent.
func Freeze(q *CQ) (*Tableau, bool) {
	n, err := q.Normalize()
	if err != nil {
		return nil, false
	}
	t := &Tableau{Rows: make(map[string][][]string)}
	for _, a := range n.Atoms {
		row := make([]string, len(a.Args))
		for i, tm := range a.Args {
			row[i] = freezeTerm(tm)
		}
		t.Rows[a.Rel] = append(t.Rows[a.Rel], row)
	}
	t.Head = make([]string, len(n.Head))
	for i, tm := range n.Head {
		t.Head[i] = freezeTerm(tm)
	}
	return t, true
}

func freezeTerm(t Term) string {
	if t.Const {
		return t.Val
	}
	return FreezeVar(t.Val)
}

func rowKey(r []string) string {
	out := ""
	for i, v := range r {
		if i > 0 {
			out += "\x1f"
		}
		out += v
	}
	return out
}

// homSearch finds homomorphisms from the atoms of a normalized CQ into a
// target set of rows. The target and every constant are interned into a
// private dictionary, so backtracking compares uint32 IDs instead of
// strings. Bindings map variable indices to target IDs (-1 = unbound);
// constants must match exactly; fix pre-binds variables (used to require a
// specific head image).
type homSearch struct {
	dict   *intern.Local
	atoms  []Atom
	target map[string][][]uint32
	varIdx map[string]int
	bind   []int64
}

const unbound = -1

func newHomSearch(atoms []Atom, target map[string][][]string) *homSearch {
	d := intern.NewLocal()
	enc := make(map[string][][]uint32, len(target))
	for rel, rows := range target {
		ers := make([][]uint32, len(rows))
		for i, r := range rows {
			ers[i] = d.Encode(r)
		}
		enc[rel] = ers
	}
	varIdx := map[string]int{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if !t.Const {
				if _, ok := varIdx[t.Val]; !ok {
					varIdx[t.Val] = len(varIdx)
				}
			}
		}
	}
	bind := make([]int64, len(varIdx))
	for i := range bind {
		bind[i] = unbound
	}
	return &homSearch{dict: d, atoms: atoms, target: enc, varIdx: varIdx, bind: bind}
}

// fix pre-binds variable v to value val, reporting false on conflict. A
// variable not used by any atom imposes no constraint.
func (h *homSearch) fix(v, val string) bool {
	i, ok := h.varIdx[v]
	if !ok {
		return true
	}
	id := int64(h.dict.ID(val))
	if h.bind[i] != unbound && h.bind[i] != id {
		return false
	}
	h.bind[i] = id
	return true
}

// orderAtoms orders atoms to bind variables early: greedily pick the atom
// with the most already-bound terms, tie-broken by fewer candidate rows.
func (h *homSearch) orderAtoms() []Atom {
	remaining := append([]Atom(nil), h.atoms...)
	bound := make([]bool, len(h.bind))
	for i, b := range h.bind {
		if b != unbound {
			bound[i] = true
		}
	}
	var out []Atom
	for len(remaining) > 0 {
		best, bestScore := -1, -1<<60
		for i, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if t.Const || bound[h.varIdx[t.Val]] {
					score += 1000
				}
			}
			score -= len(h.target[a.Rel])
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range a.Args {
			if !t.Const {
				bound[h.varIdx[t.Val]] = true
			}
		}
		out = append(out, a)
	}
	return out
}

// homArg is an atom argument with its constant interned or its variable
// resolved to a binding index.
type homArg struct {
	isConst bool
	id      uint32
	v       int
}

// run reports whether a homomorphism exists, invoking found for each
// complete binding; found returning false stops the search.
func (h *homSearch) run(found func(bind []int64) bool) bool {
	ordered := h.orderAtoms()
	args := make([][]homArg, len(ordered))
	for i, a := range ordered {
		as := make([]homArg, len(a.Args))
		for j, t := range a.Args {
			if t.Const {
				as[j] = homArg{isConst: true, id: h.dict.ID(t.Val)}
			} else {
				as[j] = homArg{v: h.varIdx[t.Val]}
			}
		}
		args[i] = as
	}
	var rec func(i int) bool
	stopped := false
	rec = func(i int) bool {
		if stopped {
			return true
		}
		if i == len(ordered) {
			if !found(h.bind) {
				stopped = true
			}
			return true
		}
		rows := h.target[ordered[i].Rel]
		as := args[i]
	nextRow:
		for _, row := range rows {
			if len(row) != len(as) {
				continue
			}
			var newly []int
			for j, a := range as {
				want := int64(row[j])
				if a.isConst {
					if int64(a.id) != want {
						for _, v := range newly {
							h.bind[v] = unbound
						}
						continue nextRow
					}
					continue
				}
				if cur := h.bind[a.v]; cur != unbound {
					if cur != want {
						for _, v := range newly {
							h.bind[v] = unbound
						}
						continue nextRow
					}
					continue
				}
				h.bind[a.v] = want
				newly = append(newly, a.v)
			}
			matched := rec(i + 1)
			for _, v := range newly {
				h.bind[v] = unbound
			}
			if matched && stopped {
				return true
			}
		}
		return false
	}
	rec(0)
	return stopped
}

// HasHomomorphism reports whether there is a homomorphism from the
// normalized query q into target with the given pre-bindings.
func HasHomomorphism(q *CQ, target map[string][][]string, fixed map[string]string) bool {
	h := newHomSearch(q.Atoms, target)
	for k, v := range fixed {
		if !h.fix(k, v) {
			return false
		}
	}
	return h.run(func([]int64) bool { return false })
}

// EvalOnRows evaluates a CQ over a small row set (e.g. a tableau),
// returning the distinct head images. Used by A-containment checks, the
// hardness gadget tests and small-instance property tests; the production
// evaluation engine lives in internal/eval.
func EvalOnRows(q *CQ, target map[string][][]string) ([][]string, bool) {
	n, err := q.Normalize()
	if err != nil {
		return nil, true // unsatisfiable query: empty result
	}
	h := newHomSearch(n.Atoms, target)
	// Resolve head terms: constants interned, variables mapped to binding
	// indices (-1 when no atom binds them — the unsafe case).
	headVar := make([]int, len(n.Head))
	headConst := make([]uint32, len(n.Head))
	for i, t := range n.Head {
		if t.Const {
			headVar[i] = -1
			headConst[i] = h.dict.ID(t.Val)
		} else if vi, ok := h.varIdx[t.Val]; ok {
			headVar[i] = vi
		} else {
			headVar[i] = -2
		}
	}
	var seen intern.RowSet
	complete := true
	h.run(func(bind []int64) bool {
		row := make([]uint32, len(n.Head))
		for i, vi := range headVar {
			switch {
			case vi == -1:
				row[i] = headConst[i]
			case vi >= 0 && bind[vi] != unbound:
				row[i] = uint32(bind[vi])
			default:
				// Head variable not bound by any atom: the query is unsafe
				// over this formalism; report incompleteness.
				complete = false
				return false
			}
		}
		seen.Add(row)
		return true
	})
	return h.dict.DecodeAll(seen.Rows), complete
}

// AnswerOnRows reports whether row tuple ans is in q's answer over target.
func AnswerOnRows(q *CQ, target map[string][][]string, ans []string) bool {
	n, err := q.Normalize()
	if err != nil {
		return false
	}
	if len(ans) != len(n.Head) {
		return false
	}
	fixed := make(map[string]string)
	for i, t := range n.Head {
		if t.Const {
			if t.Val != ans[i] {
				return false
			}
			continue
		}
		if cur, ok := fixed[t.Val]; ok {
			if cur != ans[i] {
				return false
			}
			continue
		}
		fixed[t.Val] = ans[i]
	}
	return HasHomomorphism(n, target, fixed)
}

// Contained reports classical containment q1 ⊑ q2 (Chandra-Merlin): freeze
// q1 and test whether q1's frozen head is an answer of q2 over T_{q1}.
// An inconsistent q1 is contained in everything.
func Contained(q1, q2 *CQ) bool {
	t, ok := Freeze(q1)
	if !ok {
		return true
	}
	return AnswerOnRows(q2, t.Rows, t.Head)
}

// ContainedInUCQ reports q1 ⊑ u for a CQ q1 and UCQ u.
func ContainedInUCQ(q1 *CQ, u *UCQ) bool {
	t, ok := Freeze(q1)
	if !ok {
		return true
	}
	for _, d := range u.Disjuncts {
		if AnswerOnRows(d, t.Rows, t.Head) {
			return true
		}
	}
	return false
}

// UCQContained reports u1 ⊑ u2 for UCQs: every disjunct of u1 is contained
// in u2.
func UCQContained(u1, u2 *UCQ) bool {
	for _, d := range u1.Disjuncts {
		if !ContainedInUCQ(d, u2) {
			return false
		}
	}
	return true
}

// Equivalent reports classical equivalence of CQs.
func Equivalent(q1, q2 *CQ) bool { return Contained(q1, q2) && Contained(q2, q1) }

// RowsEqual reports set equality of two row sets.
func RowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, r := range a {
		seen[rowKey(r)]++
	}
	for _, r := range b {
		k := rowKey(r)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}
