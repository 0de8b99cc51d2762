// Package access implements access schemas: sets of access constraints
// R(X -> Y, N) combining a cardinality bound with an index (Section 2).
//
// An instance D satisfies R(X -> Y, N) when every X-value in D matches at
// most N distinct Y-projections, and an index exists that, given an X-value
// a̅, returns D_{R:XY}(X = a̅) in O(N) time. The index side is realized by
// instance.VIndex in package instance; this package carries the
// declarative part and schema-level validation.
package access

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
)

// Constraint is a single access constraint R(X -> Y, N).
//
// X may be empty (constraining the whole relation's Y-projection, as in
// R(∅ -> A, 2) from Figure 2's gadgets). Y must be non-empty. N >= 1.
type Constraint struct {
	Rel string   // relation name
	X   []string // input attributes (possibly empty)
	Y   []string // output attributes
	N   int      // cardinality bound

	key string   // Key(), computed once so the per-fetch lookups allocate nothing
	xy  []string // XY(), computed once: every fetch node names its outputs by it
}

// NewConstraint builds a constraint, normalizing the attribute lists
// (sorted, de-duplicated) so that equality of constraints is syntactic.
func NewConstraint(rel string, x, y []string, n int) *Constraint {
	c := &Constraint{Rel: rel, X: normalize(x), Y: normalize(y), N: n}
	c.key, c.xy = c.Key(), c.XY()
	return c
}

func normalize(attrs []string) []string {
	out := append([]string(nil), attrs...)
	sort.Strings(out)
	w := 0
	for i, a := range out {
		if i == 0 || out[i-1] != a {
			out[w] = a
			w++
		}
	}
	return out[:w]
}

// IsFD reports whether the constraint has the functional-dependency form
// R(X -> Y, 1) used by Corollary 4.4 and Proposition 4.5.
func (c *Constraint) IsFD() bool { return c.N == 1 }

// XY returns the union X ∪ Y, sorted and de-duplicated. Fetch operations
// over this constraint return XY-projections of tuples. The slice is shared
// and capped: treat it as read-only.
func (c *Constraint) XY() []string {
	if c.xy == nil { // built as a literal, not by NewConstraint
		return normalize(append(append([]string(nil), c.X...), c.Y...))
	}
	return c.xy[:len(c.xy):len(c.xy)]
}

// Covers reports whether a fetch retrieving attributes y over input
// attributes x is covered by this constraint, i.e. the constraint is on the
// same relation, x equals X, and y ⊆ X ∪ Y (conformance condition (a), §2).
func (c *Constraint) Covers(rel string, x, y []string) bool {
	if rel != c.Rel {
		return false
	}
	nx := normalize(x)
	if len(nx) != len(c.X) {
		return false
	}
	for i := range nx {
		if nx[i] != c.X[i] {
			return false
		}
	}
	xy := c.XY()
	for _, a := range normalize(y) {
		if !contains(xy, a) {
			return false
		}
	}
	return true
}

func contains(sorted []string, a string) bool {
	i := sort.SearchStrings(sorted, a)
	return i < len(sorted) && sorted[i] == a
}

// Validate checks the constraint against a database schema: the relation
// must exist, X and Y must be attributes of it, Y non-empty, N >= 1.
func (c *Constraint) Validate(s *schema.Schema) error {
	r := s.Relation(c.Rel)
	if r == nil {
		return fmt.Errorf("access: constraint on unknown relation %s", c.Rel)
	}
	if !r.HasAttrs(c.X) {
		return fmt.Errorf("access: constraint %s: X attributes %v not all in %s", c, c.X, r)
	}
	if !r.HasAttrs(c.Y) {
		return fmt.Errorf("access: constraint %s: Y attributes %v not all in %s", c, c.Y, r)
	}
	if len(c.Y) == 0 {
		return fmt.Errorf("access: constraint %s: Y must be non-empty", c)
	}
	if c.N < 1 {
		return fmt.Errorf("access: constraint %s: N must be >= 1, got %d", c, c.N)
	}
	return nil
}

// Key returns a canonical identifier for the constraint, used for index
// lookup and de-duplication.
func (c *Constraint) Key() string {
	if c.key == "" { // built as a literal, not by NewConstraint
		return c.Rel + "(" + strings.Join(c.X, ",") + "->" + strings.Join(c.Y, ",") + ")"
	}
	return c.key
}

// String renders the constraint in the paper's notation R(X -> Y, N).
func (c *Constraint) String() string {
	x := strings.Join(c.X, ",")
	if x == "" {
		x = "∅"
	}
	return fmt.Sprintf("%s((%s) -> (%s), %d)", c.Rel, x, strings.Join(c.Y, ","), c.N)
}

// Schema is an access schema: a set of access constraints over one database
// schema.
type Schema struct {
	Constraints []*Constraint
}

// NewSchema builds an access schema from constraints.
func NewSchema(cs ...*Constraint) *Schema {
	return &Schema{Constraints: cs}
}

// Add appends a constraint.
func (a *Schema) Add(c *Constraint) { a.Constraints = append(a.Constraints, c) }

// Validate validates all constraints against the database schema.
func (a *Schema) Validate(s *schema.Schema) error {
	for _, c := range a.Constraints {
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// OnRelation returns the constraints declared on the named relation.
func (a *Schema) OnRelation(rel string) []*Constraint {
	if a == nil {
		return nil
	}
	var out []*Constraint
	for _, c := range a.Constraints {
		if c.Rel == rel {
			out = append(out, c)
		}
	}
	return out
}

// Covering returns a constraint covering a fetch with input attributes x
// and output attributes y on relation rel, or nil if none exists.
func (a *Schema) Covering(rel string, x, y []string) *Constraint {
	if a == nil {
		return nil
	}
	for _, c := range a.Constraints {
		if c.Covers(rel, x, y) {
			return c
		}
	}
	return nil
}

// AllFDs reports whether every constraint is an FD (N = 1), the regime of
// Corollary 4.4 and Proposition 4.5.
func (a *Schema) AllFDs() bool {
	for _, c := range a.Constraints {
		if !c.IsFD() {
			return false
		}
	}
	return true
}

// String renders the access schema, one constraint per line.
func (a *Schema) String() string {
	parts := make([]string, len(a.Constraints))
	for i, c := range a.Constraints {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}
