package plan

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/cq"
)

// QueryKey returns a canonical cache key for a UCQ: two queries that are
// equal up to variable renaming, atom reordering, disjunct reordering and
// resolvable equality conditions map to the same key, and equal keys imply
// equality up to renaming (the key IS a rendering of the canonicalized
// query), so a cache keyed on it can never serve a plan for a different
// query. Unsatisfiable disjuncts (equalities forcing two distinct
// constants) contribute nothing to the union and are dropped.
//
// The canonical form of each disjunct is the lexicographically least
// rendering over all atom orderings, with variables named by first
// occurrence (head first). The search is exact — branch-and-bound over
// atom permutations — up to canonMaxAtoms atoms; beyond that the disjunct
// falls back to a deterministic but renaming-sensitive form (keys stay
// sound: equal keys still imply equal queries; renamed variants of huge
// queries merely miss the cache).
func QueryKey(u *cq.UCQ) string {
	parts := make([]string, 0, len(u.Disjuncts))
	for _, d := range u.Disjuncts {
		s, ok := canonCQ(d)
		if !ok {
			continue // unsatisfiable disjunct: identical on every instance without it
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "empty/" + strconv.Itoa(u.Arity())
	}
	sort.Strings(parts)
	// Idempotent union: duplicate disjuncts collapse.
	w := 0
	for i, p := range parts {
		if i == 0 || parts[i-1] != p {
			parts[w] = p
			w++
		}
	}
	return strings.Join(parts[:w], " ∪ ")
}

// canonMaxAtoms bounds the exact canonical search; 8 atoms is far above
// the plan-size budgets the rewriting search handles anyway.
const canonMaxAtoms = 8

// canonCQ canonicalizes one disjunct; ok is false when the equality
// conditions are unsatisfiable.
func canonCQ(q *cq.CQ) (string, bool) {
	n, err := q.Normalize()
	if err != nil {
		return "", false
	}
	names := map[string]string{}
	head := make([]string, len(n.Head))
	for i, t := range n.Head {
		head[i] = canonTerm(t, names)
	}
	hs := "(" + strings.Join(head, ",") + ")<-"
	if len(n.Atoms) == 0 {
		return hs, true
	}
	if len(n.Atoms) > canonMaxAtoms {
		// Fallback: render head AND atoms with the ORIGINAL variable names
		// (plus the canonical head prefix for arity/shape). Equal keys then
		// imply identical queries up to atom order — sound, merely
		// renaming-sensitive, so huge renamed variants miss the cache.
		origHead := make([]string, len(n.Head))
		for i, t := range n.Head {
			origHead[i] = origTerm(t)
		}
		rendered := make([]string, len(n.Atoms))
		for i, a := range n.Atoms {
			parts := make([]string, len(a.Args))
			for j, t := range a.Args {
				parts[j] = origTerm(t)
			}
			rendered[i] = strconv.Quote(a.Rel) + "(" + strings.Join(parts, ",") + ")"
		}
		sort.Strings(rendered)
		return hs + "big:(" + strings.Join(origHead, ",") + ")<-" + strings.Join(rendered, ";"), true
	}
	c := &canonSearch{atoms: n.Atoms, used: make([]bool, len(n.Atoms))}
	c.dfs(names, make([]string, 0, len(n.Atoms)), true)
	return hs + strings.Join(c.best, ";"), true
}

// canonSearch finds the lexicographically least sequence of atom
// renderings over all orderings. A branch is pruned as soon as its prefix
// renders strictly greater than the incumbent's.
type canonSearch struct {
	atoms []cq.Atom
	used  []bool
	best  []string
}

// dfs extends the current prefix (parts, with the naming built so far).
// tied reports that the prefix equals the incumbent best prefix — only
// then can a later element still lose to the incumbent.
func (c *canonSearch) dfs(names map[string]string, parts []string, tied bool) {
	depth := len(parts)
	if depth == len(c.atoms) {
		if c.best == nil || less(parts, c.best) {
			c.best = append([]string(nil), parts...)
		}
		return
	}
	for i, a := range c.atoms {
		if c.used[i] {
			continue
		}
		names2 := cloneNames(names)
		r := canonAtom(a, names2)
		tied2 := tied
		if c.best != nil && tied {
			if depth >= len(c.best) || r > c.best[depth] {
				continue // prefix already beaten
			}
			tied2 = depth < len(c.best) && r == c.best[depth]
		}
		c.used[i] = true
		c.dfs(names2, append(parts, r), tied2)
		c.used[i] = false
	}
}

func less(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func cloneNames(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// canonAtom renders an atom under the naming, assigning fresh canonical
// names (c0, c1, ...) to variables seen for the first time, in argument
// order.
func canonAtom(a cq.Atom, names map[string]string) string {
	var b strings.Builder
	b.WriteString(strconv.Quote(a.Rel))
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(canonTerm(t, names))
	}
	b.WriteByte(')')
	return b.String()
}

// canonTerm renders a term under the naming. Constants are Go-quoted —
// NOT concatenated raw — so a constant crafted to look like key syntax
// (embedded quotes, separators) cannot make two different queries render
// the same key; the same holds for relation names in canonAtom. Canonical
// variable names are generated (c0, c1, ...) and inherently safe.
func canonTerm(t cq.Term, names map[string]string) string {
	if t.Const {
		return strconv.Quote(t.Val)
	}
	nm, ok := names[t.Val]
	if !ok {
		nm = "c" + strconv.Itoa(len(names))
		names[t.Val] = nm
	}
	return nm
}

// origTerm renders a term with its original name, quote-escaped, with a
// kind prefix so a variable can never collide with a constant.
func origTerm(t cq.Term) string {
	if t.Const {
		return "k" + strconv.Quote(t.Val)
	}
	return "v" + strconv.Quote(t.Val)
}

// paramPrefix starts every parameter constant Abstract puts in place of a
// query constant: parameter i is paramPrefix followed by i in decimal.
// The NUL byte keeps parameters out of ordinary text, and Abstract leaves
// a query untouched when a fixed constant carries the prefix, so a
// parameter is never mistaken for a constant of the views.
const paramPrefix = "\x00$"

// param returns the constant that stands for parameter i in an abstracted
// query and in the plans searched for it.
func param(i int) string { return paramPrefix + strconv.Itoa(i) }

// Binding maps the parameters of an abstracted query back to the
// constants they replaced: parameter i stands for Binding[i]. Abstract
// gives distinct parameters distinct constants.
type Binding []string

// Abstract replaces every constant of u that is not in fixed by a
// parameter, in the head, the atoms and the equalities of every disjunct,
// and returns the abstracted query with the binding that undoes it. Equal
// constants get the same parameter and distinct constants distinct ones,
// numbered by first occurrence, so the abstraction keeps which constants
// are equal.
//
// Queries are generic (Abiteboul, Hull, Vianu, Foundations of Databases,
// §16): a bijective renaming of constants that fixes the constants of the
// views maps a bounded rewriting of the abstracted query, and its fetch
// bound, to one of u. fixed must therefore hold every constant that occurs
// in a view definition; access constraints carry none. The rewriting
// search run on the abstracted query then serves every query that differs
// from u only in its non-view constants, as long as it keeps u's equality
// pattern; written with their atoms in u's order, such queries abstract
// to the same QueryKey.
func Abstract(u *cq.UCQ, fixed map[string]bool) (*cq.UCQ, Binding) {
	for c := range fixed {
		if strings.HasPrefix(c, paramPrefix) {
			return u, nil // a view constant looks like a parameter: keep u verbatim
		}
	}
	params := map[string]string{}
	var b Binding
	abs := func(t cq.Term) cq.Term {
		if !t.Const || fixed[t.Val] {
			return t
		}
		p, ok := params[t.Val]
		if !ok {
			p = param(len(b))
			params[t.Val] = p
			b = append(b, t.Val)
		}
		return cq.Cst(p)
	}
	out := &cq.UCQ{Name: u.Name, Disjuncts: make([]*cq.CQ, len(u.Disjuncts))}
	for i, d := range u.Disjuncts {
		out.Disjuncts[i] = mapConsts(d, abs)
	}
	return out, b
}

// Query instantiates an abstracted query: every parameter becomes the
// constant it stands for.
func (b Binding) Query(u *cq.UCQ) *cq.UCQ {
	bind := func(t cq.Term) cq.Term {
		if t.Const {
			t.Val = b.value(t.Val)
		}
		return t
	}
	out := &cq.UCQ{Name: u.Name, Disjuncts: make([]*cq.CQ, len(u.Disjuncts))}
	for i, d := range u.Disjuncts {
		out.Disjuncts[i] = mapConsts(d, bind)
	}
	return out
}

// Plan instantiates a plan searched for an abstracted query: it copies the
// plan, putting the bound constant in place of each parameter in Const
// leaves and in the constant side of selection conditions. Leaves without
// constants are shared with the input, which stays unchanged. The copy
// has the input's shape, so its conformance and fetch bound are the
// input's.
func (b Binding) Plan(n Node) Node {
	switch n := n.(type) {
	case *Const:
		return &Const{Attr: n.Attr, Val: b.value(n.Val)}
	case *Fetch:
		if n.Child == nil {
			return n
		}
		c := *n
		c.Child = b.Plan(n.Child)
		return &c
	case *Project:
		return &Project{Child: b.Plan(n.Child), Cols: n.Cols}
	case *Select:
		conds := make([]CondItem, len(n.Cond))
		for i, ci := range n.Cond {
			if ci.RConst {
				ci.R = b.value(ci.R)
			}
			conds[i] = ci
		}
		return &Select{Child: b.Plan(n.Child), Cond: conds}
	case *Product:
		return &Product{L: b.Plan(n.L), R: b.Plan(n.R)}
	case *Union:
		return &Union{L: b.Plan(n.L), R: b.Plan(n.R)}
	case *Diff:
		return &Diff{L: b.Plan(n.L), R: b.Plan(n.R)}
	case *Rename:
		return &Rename{Child: b.Plan(n.Child), Pairs: n.Pairs}
	}
	return n // View: no constants
}

// value returns the constant a parameter stands for, and any other
// constant unchanged.
func (b Binding) value(c string) string {
	if !strings.HasPrefix(c, paramPrefix) {
		return c
	}
	i, err := strconv.Atoi(c[len(paramPrefix):])
	if err != nil || i < 0 || i >= len(b) || c != param(i) {
		return c
	}
	return b[i]
}

// mapConsts copies q with f applied to every term of its head, atoms and
// equalities.
func mapConsts(q *cq.CQ, f func(cq.Term) cq.Term) *cq.CQ {
	out := &cq.CQ{Name: q.Name, Head: make([]cq.Term, len(q.Head)), Atoms: make([]cq.Atom, len(q.Atoms)), Eqs: make([]cq.Equality, len(q.Eqs))}
	for i, t := range q.Head {
		out.Head[i] = f(t)
	}
	for i, a := range q.Atoms {
		args := make([]cq.Term, len(a.Args))
		for j, t := range a.Args {
			args[j] = f(t)
		}
		out.Atoms[i] = cq.Atom{Rel: a.Rel, Args: args}
	}
	for i, e := range q.Eqs {
		out.Eqs[i] = cq.Equality{L: f(e.L), R: f(e.R)}
	}
	return out
}
