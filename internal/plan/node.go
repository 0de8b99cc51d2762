// Package plan implements the paper's query plans (Section 2): trees whose
// nodes are constants, view scans, fetch operations driven by access
// constraints, and the relational operations π, σ, ×, ∪, \, ρ. It provides
// execution over indexed instances with fetch accounting, plan→query
// unfolding (the query Q_ξ a plan expresses), conformance checking against
// an access schema, and the language classification of plans (which plans
// are CQ, UCQ, ∃FO+ or FO plans).
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/schema"
)

// Node is a query-plan node. Output columns are named; names must be
// unique within a node's output.
type Node interface {
	// Attrs returns the output attribute names, in order.
	Attrs() []string
	// Size returns the number of nodes in the subtree (the paper's plan
	// size: constants and operations both count).
	Size() int
	// Children returns the child nodes.
	Children() []Node
	// label renders this node (not the subtree).
	label() string
}

// Const is a leaf holding the singleton relation {(c)} for a constant c.
type Const struct {
	Attr string // output column name
	Val  string // the constant
}

// View is a leaf scanning a cached view V ∈ V. Cols names its output
// columns (the view's head).
type View struct {
	Name string
	Cols []string
}

// Fetch is fetch(X ∈ S_j, R, Y): for each X-value in the child's output,
// retrieve the XY-projections of matching R-tuples via the index of an
// access constraint. When the constraint's X is empty the node is a leaf.
//
// Binding is positional, as in the paper: Bind names the child attributes
// feeding C.X in order (nil means the child's attributes are named exactly
// like C.X), and As names the output attributes positionally matching
// C.XY() (nil means they are named like C.XY()). Neither costs an
// operation; they are bookkeeping for named-attribute composition.
type Fetch struct {
	Child Node // nil iff len(C.X) == 0
	C     *access.Constraint
	Bind  []string // child attrs feeding C.X, in C.X order (optional)
	As    []string // output attr names, in C.XY() order (optional)
}

// InBind returns the effective input binding (C.X when Bind is nil).
func (n *Fetch) InBind() []string {
	if n.Bind != nil {
		return n.Bind
	}
	return n.C.X
}

// OutNames returns the effective output attribute names (C.XY() when As is
// nil).
func (n *Fetch) OutNames() []string {
	if n.As != nil {
		return n.As
	}
	return n.C.XY()
}

// Project is π_Attrs.
type Project struct {
	Child Node
	Cols  []string
}

// CondItem is one comparison of a selection condition: L is an attribute;
// R is an attribute or a constant; Neq flips = to ≠ (FO plans only).
type CondItem struct {
	L      string
	RConst bool
	R      string
	Neq    bool
}

func (c CondItem) String() string {
	op := "="
	if c.Neq {
		op = "≠"
	}
	r := c.R
	if c.RConst {
		r = "\"" + c.R + "\""
	}
	return c.L + op + r
}

// Select is σ_Cond; Cond is a conjunction of comparisons and counts as a
// single operation, as in the paper's σ_{X=μ}(V) selections.
type Select struct {
	Child Node
	Cond  []CondItem
}

// Product is the Cartesian product; the children's attribute sets must be
// disjoint.
type Product struct{ L, R Node }

// Union is set union; children must have the same arity. Output attributes
// are taken from the left child.
type Union struct{ L, R Node }

// Diff is set difference (FO plans only); children must have the same
// arity. Output attributes are taken from the left child.
type Diff struct{ L, R Node }

// RenamePair maps one attribute name to another.
type RenamePair struct{ From, To string }

// Rename is ρ; one node may carry several renamings (it still counts as a
// single operation, matching the paper's use in joins).
type Rename struct {
	Child Node
	Pairs []RenamePair
}

// ---- Attrs ----

func (n *Const) Attrs() []string { return []string{n.Attr} }
func (n *View) Attrs() []string  { return n.Cols }
func (n *Fetch) Attrs() []string { return n.OutNames() }
func (n *Project) Attrs() []string {
	return n.Cols
}
func (n *Select) Attrs() []string  { return n.Child.Attrs() }
func (n *Product) Attrs() []string { return append(append([]string{}, n.L.Attrs()...), n.R.Attrs()...) }
func (n *Union) Attrs() []string   { return n.L.Attrs() }
func (n *Diff) Attrs() []string    { return n.L.Attrs() }
func (n *Rename) Attrs() []string {
	in := n.Child.Attrs()
	out := make([]string, len(in))
	for i, a := range in {
		out[i] = a
		for _, p := range n.Pairs {
			if p.From == a {
				out[i] = p.To
				break
			}
		}
	}
	return out
}

// ---- Size ----

func sizeOf(n Node) int {
	s := 1
	for _, c := range n.Children() {
		s += sizeOf(c)
	}
	return s
}

func (n *Const) Size() int   { return 1 }
func (n *View) Size() int    { return 1 }
func (n *Fetch) Size() int   { return sizeOf(n) }
func (n *Project) Size() int { return sizeOf(n) }
func (n *Select) Size() int  { return sizeOf(n) }
func (n *Product) Size() int { return sizeOf(n) }
func (n *Union) Size() int   { return sizeOf(n) }
func (n *Diff) Size() int    { return sizeOf(n) }
func (n *Rename) Size() int  { return sizeOf(n) }

// ---- Children ----

func (n *Const) Children() []Node { return nil }
func (n *View) Children() []Node  { return nil }
func (n *Fetch) Children() []Node {
	if n.Child == nil {
		return nil
	}
	return []Node{n.Child}
}
func (n *Project) Children() []Node { return []Node{n.Child} }
func (n *Select) Children() []Node  { return []Node{n.Child} }
func (n *Product) Children() []Node { return []Node{n.L, n.R} }
func (n *Union) Children() []Node   { return []Node{n.L, n.R} }
func (n *Diff) Children() []Node    { return []Node{n.L, n.R} }
func (n *Rename) Children() []Node  { return []Node{n.Child} }

// ---- labels and rendering ----

func (n *Const) label() string { return fmt.Sprintf("const %s=%q", n.Attr, n.Val) }
func (n *View) label() string  { return "view " + n.Name + "(" + strings.Join(n.Cols, ",") + ")" }
func (n *Fetch) label() string {
	x := strings.Join(n.InBind(), ",")
	if x == "" {
		x = "∅"
	}
	return fmt.Sprintf("fetch(%s ∈ child, %s, %s)→(%s)", x, n.C.Rel, strings.Join(n.C.Y, ","), strings.Join(n.OutNames(), ","))
}
func (n *Project) label() string { return "π[" + strings.Join(n.Cols, ",") + "]" }
func (n *Select) label() string {
	parts := make([]string, len(n.Cond))
	for i, c := range n.Cond {
		parts[i] = c.String()
	}
	return "σ[" + strings.Join(parts, "∧") + "]"
}
func (n *Product) label() string { return "×" }
func (n *Union) label() string   { return "∪" }
func (n *Diff) label() string    { return "\\" }
func (n *Rename) label() string {
	parts := make([]string, len(n.Pairs))
	for i, p := range n.Pairs {
		parts[i] = p.From + "→" + p.To
	}
	return "ρ[" + strings.Join(parts, ",") + "]"
}

// Render returns a human-readable tree rendering of the plan, one node per
// line with indentation.
func Render(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.label())
		b.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Canonical returns a canonical string for the plan, used to deduplicate
// structurally identical candidates during enumeration.
func Canonical(n Node) string {
	var b strings.Builder
	var rec func(n Node)
	rec = func(n Node) {
		b.WriteString(n.label())
		b.WriteString("(")
		for i, c := range n.Children() {
			if i > 0 {
				b.WriteString(",")
			}
			rec(c)
		}
		b.WriteString(")")
	}
	rec(n)
	return b.String()
}

// Validate checks structural well-formedness: what Compile checks
// (attributes exist, union and difference operands have equal arity, fetch
// output names match the constraint) and, over every node, attribute
// names non-empty and unique, products over disjoint attributes, selections
// non-empty, renamings of existing attributes, and fetches whose
// constraint fits the schema and whose input binding is the child's
// attributes, one per X attribute (a fetch is a leaf exactly when X is
// empty).
func Validate(n Node, s *schema.Schema) error {
	p := pooled(n)
	err := p.err
	if p.release(); err != nil {
		return err
	}
	return validate(n, s)
}

func validate(n Node, s *schema.Schema) error {
	seen := map[string]bool{}
	for _, a := range n.Attrs() {
		if a == "" {
			return fmt.Errorf("plan: empty attribute name in %s", n.label())
		}
		if seen[a] {
			return fmt.Errorf("plan: duplicate output attribute %s in %s", a, n.label())
		}
		seen[a] = true
	}
	switch x := n.(type) {
	case *Fetch:
		if err := x.C.Validate(s); err != nil {
			return err
		}
		if x.Bind != nil && len(x.Bind) != len(x.C.X) {
			return fmt.Errorf("plan: fetch binding %v must have one entry per X attribute %v", x.Bind, x.C.X)
		}
		if (len(x.C.X) == 0) != (x.Child == nil) {
			return fmt.Errorf("plan: a fetch must be a leaf exactly when its X is empty")
		}
		if x.Child != nil {
			ca := append([]string(nil), x.Child.Attrs()...)
			sort.Strings(ca)
			bind := append([]string(nil), x.InBind()...)
			sort.Strings(bind)
			if !sameStrings(ca, bind) {
				return fmt.Errorf("plan: fetch child attrs %v must equal input binding %v", ca, bind)
			}
		}
	case *Select:
		if len(x.Cond) == 0 {
			return fmt.Errorf("plan: empty selection condition")
		}
	case *Product:
		l, r := toSet(x.L.Attrs()), toSet(x.R.Attrs())
		for a := range l {
			if r[a] {
				return fmt.Errorf("plan: product children share attribute %s", a)
			}
		}
	case *Rename:
		in := toSet(x.Child.Attrs())
		for _, p := range x.Pairs {
			if !in[p.From] {
				return fmt.Errorf("plan: rename source %s not in child attrs", p.From)
			}
		}
	}
	for _, c := range n.Children() {
		if err := validate(c, s); err != nil {
			return err
		}
	}
	return nil
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
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

// Language is a query-language fragment a plan may belong to (Section 2).
type Language int

// Language constants, ordered by expressiveness.
const (
	LangCQ Language = iota
	LangUCQ
	LangPosFO // ∃FO+
	LangFO
)

func (l Language) String() string {
	switch l {
	case LangCQ:
		return "CQ"
	case LangUCQ:
		return "UCQ"
	case LangPosFO:
		return "∃FO+"
	default:
		return "FO"
	}
}

// InLanguage reports whether the plan is a plan in the given language per
// Section 2: CQ plans use fetch/π/σ/×/ρ (and leaves); UCQ additionally
// allows ∪ but only at the top (every ancestor of a ∪ is a ∪); ∃FO+ allows
// ∪ anywhere; FO allows everything. Selections with ≠ are FO-only.
func InLanguage(n Node, l Language) bool {
	switch l {
	case LangCQ:
		return checkOps(n, false, false, false)
	case LangUCQ:
		// Strip the top-level ∪ prefix, then every subtree must be a CQ plan.
		if u, ok := n.(*Union); ok {
			return InLanguage(u.L, LangUCQ) && InLanguage(u.R, LangUCQ)
		}
		return checkOps(n, false, false, false)
	case LangPosFO:
		return checkOps(n, true, false, false)
	default:
		return checkOps(n, true, true, true)
	}
}

// checkOps verifies the operations used in a subtree against the allowed
// set: ∪ (allowUnion), \ (allowDiff), ≠ in selections (allowNeq).
func checkOps(n Node, allowUnion, allowDiff, allowNeq bool) bool {
	switch x := n.(type) {
	case *Union:
		if !allowUnion {
			return false
		}
	case *Diff:
		if !allowDiff {
			return false
		}
	case *Select:
		for _, c := range x.Cond {
			if c.Neq && !allowNeq {
				return false
			}
		}
	}
	for _, c := range n.Children() {
		if !checkOps(c, allowUnion, allowDiff, allowNeq) {
			return false
		}
	}
	return true
}
