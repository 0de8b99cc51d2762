package plan

import (
	"fmt"
	"strconv"

	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/schema"
)

// Unfolder converts plans to the queries they express (Q_ξ, Section 2),
// substituting view definitions for view scans. Views are given as UCQs
// (a CQ view is a singleton union). Fresh existential variables are drawn
// from a shared counter and prefixed with "!", which output attribute names
// may not use, so no capture can occur.
type Unfolder struct {
	Schema *schema.Schema
	Views  map[string]*cq.UCQ

	counter int
	approx  bool // unfolding for UCQApprox
}

// NewUnfolder builds an unfolder over the schema and view definitions.
func NewUnfolder(s *schema.Schema, views map[string]*cq.UCQ) *Unfolder {
	return &Unfolder{Schema: s, Views: views}
}

func (u *Unfolder) fresh() string {
	u.counter++
	return "!" + strconv.Itoa(u.counter)
}

// UCQ unfolds the plan into a UCQ whose head variables are named by the
// plan's output attributes. It fails on Diff nodes (not expressible) and on
// selections with ≠; use FO for those plans.
//
// Invariant maintained through the recursion: every returned disjunct has
// head term i equal to Var(attrs[i]), and every non-head variable has a
// fresh "!"-name unique across the whole unfolding.
func (u *Unfolder) UCQ(n Node) (*cq.UCQ, error) {
	switch x := n.(type) {
	case *Const:
		d := &cq.CQ{
			Head: []cq.Term{cq.Var(x.Attr)},
			Eqs:  []cq.Equality{{L: cq.Var(x.Attr), R: cq.Cst(x.Val)}},
		}
		return cq.NewUCQ(d), nil

	case *View:
		def, ok := u.Views[x.Name]
		if !ok {
			return nil, fmt.Errorf("plan: view %s has no definition", x.Name)
		}
		out := &cq.UCQ{}
		for _, d := range def.Disjuncts {
			if len(d.Head) != len(x.Cols) {
				return nil, fmt.Errorf("plan: view %s head arity %d, node expects %d", x.Name, len(d.Head), len(x.Cols))
			}
			nd, err := u.rebindHead(d, x.Cols)
			if err != nil {
				return nil, err
			}
			if nd != nil { // nil: the disjunct is inconsistent, drop it
				out.Disjuncts = append(out.Disjuncts, nd)
			}
		}
		return out, nil

	case *Fetch:
		rel := u.Schema.Relation(x.C.Rel)
		if rel == nil {
			return nil, fmt.Errorf("plan: fetch on unknown relation %s", x.C.Rel)
		}
		// Output variable per XY attribute, named per As.
		xyAttrs := x.C.XY()
		outNames := x.OutNames()
		outVar := map[string]string{} // relation attr -> output var name
		for i, a := range xyAttrs {
			outVar[a] = outNames[i]
		}
		mkAtom := func() cq.Atom {
			args := make([]cq.Term, rel.Arity())
			for i, attr := range rel.Attrs {
				if v, ok := outVar[attr]; ok {
					args[i] = cq.Var(v)
				} else {
					args[i] = cq.Var(u.fresh())
				}
			}
			return cq.Atom{Rel: rel.Name, Args: args}
		}
		head := varTerms(outNames)
		if x.Child == nil {
			return cq.NewUCQ(&cq.CQ{Head: head, Atoms: []cq.Atom{mkAtom()}}), nil
		}
		child, err := u.UCQ(x.Child)
		if err != nil {
			return nil, err
		}
		bind := x.InBind()
		out := &cq.UCQ{}
		for _, d := range child.Disjuncts {
			// Rename the child's head variables apart, then equate each
			// bound input with the output variable of the corresponding X
			// attribute (the fetched tuples agree with the input on X).
			sub := map[string]cq.Term{}
			fresh := make([]string, len(bind))
			for i, b := range bind {
				if _, dup := sub[b]; !dup {
					fresh[i] = u.fresh()
					sub[b] = cq.Var(fresh[i])
				} else {
					fresh[i] = sub[b].Val
				}
			}
			nd := cq.SubstituteCQ(d, sub)
			nd.Head = append([]cq.Term(nil), head...)
			nd.Atoms = append(nd.Atoms, mkAtom())
			for i, xattr := range x.C.X {
				nd.Eqs = append(nd.Eqs, cq.Equality{L: cq.Var(outVar[xattr]), R: cq.Var(fresh[i])})
			}
			out.Disjuncts = append(out.Disjuncts, nd)
		}
		return out, nil

	case *Project:
		child, err := u.UCQ(x.Child)
		if err != nil {
			return nil, err
		}
		keep := toSet(x.Cols)
		out := &cq.UCQ{}
		for _, d := range child.Disjuncts {
			// Rename dropped head variables to fresh names so they cannot
			// collide with same-named attributes elsewhere in a product.
			sub := map[string]cq.Term{}
			for _, t := range d.Head {
				if !t.Const && !keep[t.Val] {
					if _, dup := sub[t.Val]; !dup {
						sub[t.Val] = cq.Var(u.fresh())
					}
				}
			}
			nd := cq.SubstituteCQ(d, sub)
			nd.Head = varTerms(x.Cols)
			out.Disjuncts = append(out.Disjuncts, nd)
		}
		return out, nil

	case *Select:
		child, err := u.UCQ(x.Child)
		if err != nil {
			return nil, err
		}
		out := &cq.UCQ{}
		for _, d := range child.Disjuncts {
			nd := d.Clone()
			for _, c := range x.Cond {
				if c.Neq {
					return nil, fmt.Errorf("plan: ≠ selection is not expressible in UCQ")
				}
				r := cq.Var(c.R)
				if c.RConst {
					r = cq.Cst(c.R)
				}
				nd.Eqs = append(nd.Eqs, cq.Equality{L: cq.Var(c.L), R: r})
			}
			out.Disjuncts = append(out.Disjuncts, nd)
		}
		return out, nil

	case *Product:
		l, err := u.UCQ(x.L)
		if err != nil {
			return nil, err
		}
		r, err := u.UCQ(x.R)
		if err != nil {
			return nil, err
		}
		out := &cq.UCQ{}
		for _, dl := range l.Disjuncts {
			for _, dr := range r.Disjuncts {
				nd := dl.Clone()
				rr := dr.Clone()
				nd.Head = append(nd.Head, rr.Head...)
				nd.Atoms = append(nd.Atoms, rr.Atoms...)
				nd.Eqs = append(nd.Eqs, rr.Eqs...)
				out.Disjuncts = append(out.Disjuncts, nd)
			}
		}
		return out, nil

	case *Union:
		l, err := u.UCQ(x.L)
		if err != nil {
			return nil, err
		}
		r, err := u.UCQ(x.R)
		if err != nil {
			return nil, err
		}
		out := &cq.UCQ{Disjuncts: append([]*cq.CQ(nil), l.Disjuncts...)}
		for _, d := range r.Disjuncts {
			nd, err := u.alignHead(d, x.R.Attrs(), x.L.Attrs())
			if err != nil {
				return nil, err
			}
			out.Disjuncts = append(out.Disjuncts, nd)
		}
		return out, nil

	case *Rename:
		child, err := u.UCQ(x.Child)
		if err != nil {
			return nil, err
		}
		sub := map[string]cq.Term{}
		for _, p := range x.Pairs {
			sub[p.From] = cq.Var(p.To)
		}
		out := &cq.UCQ{}
		for _, d := range child.Disjuncts {
			out.Disjuncts = append(out.Disjuncts, cq.SubstituteCQ(d, sub))
		}
		return out, nil

	case *Diff:
		if u.approx {
			return u.UCQ(x.L)
		}
		return nil, fmt.Errorf("plan: set difference is not expressible in UCQ")

	default:
		return nil, fmt.Errorf("plan: unknown node type %T", n)
	}
}

// UCQApprox unfolds like UCQ but over-approximates every Diff node by its
// left child. The result contains the plan's output on every instance,
// which makes it a sound input for bounded-output conformance checks on FO
// plans (where the exact analysis is undecidable, Theorem 3.4).
func (u *Unfolder) UCQApprox(n Node) (*cq.UCQ, error) {
	u.approx = true
	defer func() { u.approx = false }()
	return u.UCQ(n)
}

// rebindHead freshens all variables of a view disjunct and rebinds its head
// to the given attribute names, preserving repeated variables and constant
// head terms as equalities.
func (u *Unfolder) rebindHead(d *cq.CQ, cols []string) (*cq.CQ, error) {
	// Freshen every variable in the disjunct.
	sub := map[string]cq.Term{}
	for _, v := range d.Vars() {
		sub[v] = cq.Var(u.fresh())
	}
	fr := cq.SubstituteCQ(d, sub)
	// Bind head positions to Var(col_i).
	nd := fr.Clone()
	newHead := varTerms(cols)
	for i, t := range fr.Head {
		if t.Const {
			nd.Eqs = append(nd.Eqs, cq.Equality{L: newHead[i], R: t})
			continue
		}
		nd.Eqs = append(nd.Eqs, cq.Equality{L: newHead[i], R: t})
	}
	nd.Head = newHead
	// Normalize to fold the binding equalities in; resolve representative
	// drift by re-substituting head representatives with attr names.
	return u.canonHead(nd, cols)
}

// alignHead renames a disjunct's head variables from one attribute list to
// another (positionally), as set union requires.
func (u *Unfolder) alignHead(d *cq.CQ, from, to []string) (*cq.CQ, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("plan: cannot align heads %v and %v", from, to)
	}
	sub := map[string]cq.Term{}
	for i := range from {
		sub[from[i]] = cq.Var(to[i])
	}
	return cq.SubstituteCQ(d, sub), nil
}

// canonHead normalizes the disjunct and re-establishes the invariant that
// head position i is Var(cols[i]) (normalization may have replaced an
// attribute variable by a class representative or constant). A constant
// head position c is re-expressed as Var(col) with equality col=c.
func (u *Unfolder) canonHead(d *cq.CQ, cols []string) (*cq.CQ, error) {
	n, err := d.Normalize()
	if err != nil {
		// Inconsistent disjunct; signal with nil (dropped by callers).
		return nil, nil
	}
	sub := map[string]cq.Term{}
	var eqs []cq.Equality
	for i, t := range n.Head {
		want := cq.Var(cols[i])
		if t.Const {
			eqs = append(eqs, cq.Equality{L: want, R: t})
			continue
		}
		if t.Val == cols[i] {
			continue
		}
		if _, dup := sub[t.Val]; dup {
			// Same representative bound to two attr names: keep first
			// mapping and equate.
			eqs = append(eqs, cq.Equality{L: want, R: sub[t.Val]})
			continue
		}
		sub[t.Val] = want
	}
	out := cq.SubstituteCQ(n, sub)
	out.Head = varTerms(cols)
	out.Eqs = append(out.Eqs, eqs...)
	return out, nil
}

func varTerms(attrs []string) []cq.Term {
	out := make([]cq.Term, len(attrs))
	for i, a := range attrs {
		out[i] = cq.Var(a)
	}
	return out
}

// FO unfolds the plan into an FO query (handles Diff and ≠ selections).
// The head is the plan's output attribute list.
func (u *Unfolder) FO(n Node) (*fo.Query, error) {
	e, err := u.foExpr(n)
	if err != nil {
		return nil, err
	}
	return &fo.Query{Head: append([]string(nil), n.Attrs()...), Body: e}, nil
}

func (u *Unfolder) foExpr(n Node) (fo.Expr, error) {
	switch x := n.(type) {
	case *Diff:
		l, err := u.foExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := u.foExpr(x.R)
		if err != nil {
			return nil, err
		}
		// Align R's head variables to L's attribute names.
		sub := map[string]cq.Term{}
		la, ra := x.L.Attrs(), x.R.Attrs()
		for i := range ra {
			if ra[i] != la[i] {
				sub[ra[i]] = cq.Var(la[i])
			}
		}
		if len(sub) > 0 {
			r = fo.Substitute(fo.Rectify(r), sub)
		}
		return &fo.And{L: l, R: &fo.Not{E: r}}, nil

	case *Union:
		l, err := u.foExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := u.foExpr(x.R)
		if err != nil {
			return nil, err
		}
		sub := map[string]cq.Term{}
		la, ra := x.L.Attrs(), x.R.Attrs()
		for i := range ra {
			if ra[i] != la[i] {
				sub[ra[i]] = cq.Var(la[i])
			}
		}
		if len(sub) > 0 {
			r = fo.Substitute(fo.Rectify(r), sub)
		}
		return &fo.Or{L: l, R: r}, nil

	case *Select:
		c, err := u.foExpr(x.Child)
		if err != nil {
			return nil, err
		}
		conds := make([]fo.Expr, 0, len(x.Cond))
		for _, cd := range x.Cond {
			r := cq.Var(cd.R)
			if cd.RConst {
				r = cq.Cst(cd.R)
			}
			if cd.Neq {
				conds = append(conds, fo.Neq(cq.Var(cd.L), r))
			} else {
				conds = append(conds, fo.Eq(cq.Var(cd.L), r))
			}
		}
		return fo.Conj(append([]fo.Expr{c}, conds...)...), nil

	case *Project:
		c, err := u.foExpr(x.Child)
		if err != nil {
			return nil, err
		}
		keep := toSet(x.Cols)
		var drop []string
		for _, a := range x.Child.Attrs() {
			if !keep[a] {
				drop = append(drop, a)
			}
		}
		if len(drop) == 0 {
			return c, nil
		}
		return &fo.Exists{Vars: drop, E: c}, nil

	case *Product:
		l, err := u.foExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := u.foExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &fo.And{L: l, R: r}, nil

	case *Rename:
		c, err := u.foExpr(x.Child)
		if err != nil {
			return nil, err
		}
		sub := map[string]cq.Term{}
		for _, p := range x.Pairs {
			sub[p.From] = cq.Var(p.To)
		}
		return fo.Substitute(fo.Rectify(c), sub), nil

	default:
		// Leaves and Fetch: reuse the UCQ path and embed.
		uq, err := u.UCQ(n)
		if err != nil {
			return nil, err
		}
		var parts []fo.Expr
		for _, d := range uq.Disjuncts {
			if d == nil {
				continue
			}
			fq := fo.FromCQ(d)
			// fo.FromCQ names the head by the CQ head variables, which by
			// the unfolder invariant are the node's attributes already.
			parts = append(parts, fq.Body)
		}
		if len(parts) == 0 {
			// Unsatisfiable node: encode as a contradictory equality.
			return fo.Eq(cq.Cst("0"), cq.Cst("1")), nil
		}
		return fo.Disj(parts...), nil
	}
}
