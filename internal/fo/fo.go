// Package fo implements first-order (relational calculus) queries: the full
// FO AST with conjunction, disjunction, negation, quantifiers and
// (in)equalities, plus free-variable analysis, substitution, the safe-range
// restriction, and the translation of ∃FO+ queries to UCQ (Section 2).
//
// The effective syntax of Section 5 (topped and size-bounded queries) is
// defined over this AST in package topped.
package fo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
)

// Expr is an FO formula. Implementations: Atom, Cmp, And, Or, Not, Exists,
// Forall, Implies.
type Expr interface {
	// FreeVars returns the sorted free variables of the formula.
	FreeVars() []string
	// String renders the formula.
	String() string
	// clone deep-copies the formula.
	clone() Expr
}

// Atom is a relation (or view) atom R(t1,...,tk).
type Atom struct {
	Rel  string
	Args []cq.Term
}

// Cmp is a comparison t1 = t2 or t1 ≠ t2.
type Cmp struct {
	L, R cq.Term
	Neq  bool // true for ≠
}

// And is conjunction.
type And struct{ L, R Expr }

// Or is disjunction.
type Or struct{ L, R Expr }

// Not is negation.
type Not struct{ E Expr }

// Exists is existential quantification over Vars.
type Exists struct {
	Vars []string
	E    Expr
}

// Forall is universal quantification over Vars.
type Forall struct {
	Vars []string
	E    Expr
}

// Implies is material implication A → B, syntactic sugar for ¬A ∨ B kept
// explicit so the size-bounded pattern of Section 5.3 is recognizable.
type Implies struct{ A, B Expr }

// ---- constructors ----

// NewAtom builds a relation atom.
func NewAtom(rel string, args ...cq.Term) *Atom { return &Atom{Rel: rel, Args: args} }

// Eq builds t1 = t2.
func Eq(l, r cq.Term) *Cmp { return &Cmp{L: l, R: r} }

// Neq builds t1 ≠ t2.
func Neq(l, r cq.Term) *Cmp { return &Cmp{L: l, R: r, Neq: true} }

// Conj folds a conjunction left-associatively; it panics on empty input.
func Conj(es ...Expr) Expr {
	if len(es) == 0 {
		panic("fo: Conj of zero formulas")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &And{L: out, R: e}
	}
	return out
}

// Disj folds a disjunction left-associatively; it panics on empty input.
func Disj(es ...Expr) Expr {
	if len(es) == 0 {
		panic("fo: Disj of zero formulas")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Or{L: out, R: e}
	}
	return out
}

// ---- FreeVars ----

func (a *Atom) FreeVars() []string {
	set := map[string]struct{}{}
	for _, t := range a.Args {
		if !t.Const {
			set[t.Val] = struct{}{}
		}
	}
	return sorted(set)
}

func (c *Cmp) FreeVars() []string {
	set := map[string]struct{}{}
	if !c.L.Const {
		set[c.L.Val] = struct{}{}
	}
	if !c.R.Const {
		set[c.R.Val] = struct{}{}
	}
	return sorted(set)
}

func (e *And) FreeVars() []string     { return unionVars(e.L.FreeVars(), e.R.FreeVars()) }
func (e *Or) FreeVars() []string      { return unionVars(e.L.FreeVars(), e.R.FreeVars()) }
func (e *Not) FreeVars() []string     { return e.E.FreeVars() }
func (e *Implies) FreeVars() []string { return unionVars(e.A.FreeVars(), e.B.FreeVars()) }

func (e *Exists) FreeVars() []string { return minus(e.E.FreeVars(), e.Vars) }
func (e *Forall) FreeVars() []string { return minus(e.E.FreeVars(), e.Vars) }

func sorted(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func unionVars(a, b []string) []string {
	set := map[string]struct{}{}
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		set[v] = struct{}{}
	}
	return sorted(set)
}

func minus(a, drop []string) []string {
	d := map[string]struct{}{}
	for _, v := range drop {
		d[v] = struct{}{}
	}
	var out []string
	for _, v := range a {
		if _, del := d[v]; !del {
			out = append(out, v)
		}
	}
	return out
}

// ---- String ----

func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ",") + ")"
}

func (c *Cmp) String() string {
	op := "="
	if c.Neq {
		op = "≠"
	}
	return c.L.String() + op + c.R.String()
}

func (e *And) String() string     { return "(" + e.L.String() + " ∧ " + e.R.String() + ")" }
func (e *Or) String() string      { return "(" + e.L.String() + " ∨ " + e.R.String() + ")" }
func (e *Not) String() string     { return "¬" + e.E.String() }
func (e *Implies) String() string { return "(" + e.A.String() + " → " + e.B.String() + ")" }

func (e *Exists) String() string {
	return "∃" + strings.Join(e.Vars, ",") + " " + e.E.String()
}

func (e *Forall) String() string {
	return "∀" + strings.Join(e.Vars, ",") + " " + e.E.String()
}

// ---- clone ----

func (a *Atom) clone() Expr {
	return &Atom{Rel: a.Rel, Args: append([]cq.Term(nil), a.Args...)}
}
func (c *Cmp) clone() Expr     { cc := *c; return &cc }
func (e *And) clone() Expr     { return &And{L: e.L.clone(), R: e.R.clone()} }
func (e *Or) clone() Expr      { return &Or{L: e.L.clone(), R: e.R.clone()} }
func (e *Not) clone() Expr     { return &Not{E: e.E.clone()} }
func (e *Implies) clone() Expr { return &Implies{A: e.A.clone(), B: e.B.clone()} }
func (e *Exists) clone() Expr {
	return &Exists{Vars: append([]string(nil), e.Vars...), E: e.E.clone()}
}
func (e *Forall) clone() Expr {
	return &Forall{Vars: append([]string(nil), e.Vars...), E: e.E.clone()}
}

// Clone deep-copies a formula.
func Clone(e Expr) Expr { return e.clone() }

// Query is an FO query: a formula with an explicit ordered list of free
// (answer) variables. Head variables must be exactly the free variables of
// Body (checked by Validate).
type Query struct {
	Name string
	Head []string
	Body Expr
}

// Validate checks that Head matches the body's free variables as a set.
func (q *Query) Validate() error {
	fv := q.Body.FreeVars()
	if len(fv) != len(q.Head) {
		return fmt.Errorf("fo: head %v does not match free variables %v", q.Head, fv)
	}
	hs := append([]string(nil), q.Head...)
	sort.Strings(hs)
	for i := range hs {
		if hs[i] != fv[i] {
			return fmt.Errorf("fo: head %v does not match free variables %v", q.Head, fv)
		}
	}
	return nil
}

// String renders the query.
func (q *Query) String() string {
	name := q.Name
	if name == "" {
		name = "Q"
	}
	return name + "(" + strings.Join(q.Head, ",") + ") := " + q.Body.String()
}

// IsPositiveExistential reports whether the formula is in ∃FO+: no
// negation, no universal quantification, no ≠, no implication.
func IsPositiveExistential(e Expr) bool {
	switch x := e.(type) {
	case *Atom:
		return true
	case *Cmp:
		return !x.Neq
	case *And:
		return IsPositiveExistential(x.L) && IsPositiveExistential(x.R)
	case *Or:
		return IsPositiveExistential(x.L) && IsPositiveExistential(x.R)
	case *Exists:
		return IsPositiveExistential(x.E)
	case *Not, *Forall, *Implies:
		return false
	default:
		return false
	}
}

// Walk visits every subformula in preorder.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch x := e.(type) {
	case *And:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Or:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Not:
		Walk(x.E, visit)
	case *Implies:
		Walk(x.A, visit)
		Walk(x.B, visit)
	case *Exists:
		Walk(x.E, visit)
	case *Forall:
		Walk(x.E, visit)
	}
}

// Constants returns the sorted constants mentioned in the formula.
func Constants(e Expr) []string {
	set := map[string]struct{}{}
	Walk(e, func(x Expr) {
		switch a := x.(type) {
		case *Atom:
			for _, t := range a.Args {
				if t.Const {
					set[t.Val] = struct{}{}
				}
			}
		case *Cmp:
			if a.L.Const {
				set[a.L.Val] = struct{}{}
			}
			if a.R.Const {
				set[a.R.Val] = struct{}{}
			}
		}
	})
	return sorted(set)
}
