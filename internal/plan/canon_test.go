package plan

import (
	"fmt"
	"testing"

	"repro/internal/cq"
)

func TestQueryKeyInvariantUnderRenamingAndReordering(t *testing.T) {
	// Q(x) :- R(x,y), S(y,"c"), x=x2  — and a renamed, reordered variant.
	q1 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("S", cq.Var("y"), cq.Cst("c")),
	}, cq.Equality{L: cq.Var("x"), R: cq.Var("x2")})
	q2 := cq.NewCQ([]cq.Term{cq.Var("u")}, []cq.Atom{
		cq.NewAtom("S", cq.Var("w"), cq.Cst("c")),
		cq.NewAtom("R", cq.Var("u"), cq.Var("w")),
	})
	k1, k2 := QueryKey(cq.NewUCQ(q1)), QueryKey(cq.NewUCQ(q2))
	if k1 != k2 {
		t.Fatalf("renamed/reordered queries must share a key:\n%s\n%s", k1, k2)
	}

	// Repeated head variables and constants must be preserved.
	q3 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})
	q4 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("z")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}, cq.Equality{L: cq.Var("z"), R: cq.Var("x")})
	if QueryKey(cq.NewUCQ(q3)) != QueryKey(cq.NewUCQ(q4)) {
		t.Fatal("equality-resolved repeated head variable must canonicalize")
	}
	q5 := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("z")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("z"))})
	if QueryKey(cq.NewUCQ(q3)) == QueryKey(cq.NewUCQ(q5)) {
		t.Fatal("distinct head patterns must not collide")
	}
}

func TestQueryKeyDisjunctOrderAndUnsat(t *testing.T) {
	a := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Cst("1"))})
	b := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Cst("2"))})
	bad := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))},
		cq.Equality{L: cq.Cst("p"), R: cq.Cst("q")})
	k1 := QueryKey(&cq.UCQ{Disjuncts: []*cq.CQ{a, b, bad}})
	k2 := QueryKey(&cq.UCQ{Disjuncts: []*cq.CQ{b, a}})
	if k1 != k2 {
		t.Fatalf("disjunct order and unsatisfiable disjuncts must not matter:\n%s\n%s", k1, k2)
	}
	if QueryKey(cq.NewUCQ(a)) == QueryKey(cq.NewUCQ(b)) {
		t.Fatal("different constants must not collide")
	}
	// Duplicate disjuncts collapse (idempotent union).
	if QueryKey(cq.NewUCQ(a)) != QueryKey(cq.NewUCQ(a, a)) {
		t.Fatal("duplicate disjuncts must collapse")
	}
}

// Regression: beyond canonMaxAtoms the fallback must still separate
// non-equivalent queries — here two 9-atom queries differing only in
// which variable the head projects.
func TestQueryKeyBigFallbackNoCollision(t *testing.T) {
	build := func(head string) *cq.CQ {
		atoms := []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))}
		for i := 1; i <= 8; i++ {
			atoms = append(atoms, cq.NewAtom(fmt.Sprintf("P%d", i), cq.Var("x")))
		}
		return cq.NewCQ([]cq.Term{cq.Var(head)}, atoms)
	}
	k1 := QueryKey(cq.NewUCQ(build("x")))
	k2 := QueryKey(cq.NewUCQ(build("y")))
	if k1 == k2 {
		t.Fatalf("big-query fallback collided on different head variables:\n%s", k1)
	}
	// Identical big queries still share a key (atom order insensitive).
	q := build("x")
	q.Atoms[0], q.Atoms[5] = q.Atoms[5], q.Atoms[0]
	if QueryKey(cq.NewUCQ(q)) != k1 {
		t.Fatal("big-query fallback must stay atom-order insensitive")
	}
}

// Regression: constants crafted to look like key syntax (embedded quotes
// and separators, constructible via the exported Cst) must not make two
// non-equivalent queries share a key.
func TestQueryKeyConstantInjection(t *testing.T) {
	q1 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("x"), cq.Cst("1")),
		cq.NewAtom("S", cq.Cst("2")),
	})
	q2 := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{
		cq.NewAtom("R", cq.Var("x"), cq.Cst(`1");"S"("2`)),
	})
	k1, k2 := QueryKey(cq.NewUCQ(q1)), QueryKey(cq.NewUCQ(q2))
	if k1 == k2 {
		t.Fatalf("constant injection collided two non-equivalent queries:\n%s", k1)
	}
	// Same for the big-query fallback path.
	big := func(last cq.Atom) *cq.CQ {
		atoms := []cq.Atom{}
		for i := 0; i < canonMaxAtoms; i++ {
			atoms = append(atoms, cq.NewAtom(fmt.Sprintf("P%d", i), cq.Var("x")))
		}
		return cq.NewCQ([]cq.Term{cq.Var("x")}, append(atoms, last))
	}
	b1 := QueryKey(cq.NewUCQ(big(cq.NewAtom("R", cq.Var("x"), cq.Cst(`a");P0("x`)))))
	b2 := QueryKey(cq.NewUCQ(big(cq.NewAtom("R", cq.Var("x"), cq.Cst(`a`)))))
	if b1 == b2 {
		t.Fatalf("big-fallback constant injection collided:\n%s", b1)
	}
}

func TestQueryKeySymmetricAtoms(t *testing.T) {
	// A symmetric triangle: any rotation/renaming must canonicalize the
	// same, exercising the branch-and-bound beyond greedy ordering.
	tri := func(v1, v2, v3 string) *cq.CQ {
		return cq.NewCQ([]cq.Term{cq.Var(v1)}, []cq.Atom{
			cq.NewAtom("E", cq.Var(v1), cq.Var(v2)),
			cq.NewAtom("E", cq.Var(v2), cq.Var(v3)),
			cq.NewAtom("E", cq.Var(v3), cq.Var(v1)),
		})
	}
	k := QueryKey(cq.NewUCQ(tri("a", "b", "c")))
	for _, q := range []*cq.CQ{tri("p", "q", "r"), tri("z9", "z1", "z5")} {
		if got := QueryKey(cq.NewUCQ(q)); got != k {
			t.Fatalf("triangle renaming changed the key:\n%s\n%s", k, got)
		}
	}
	// Reordered atom list of the same triangle.
	q := cq.NewCQ([]cq.Term{cq.Var("a")}, []cq.Atom{
		cq.NewAtom("E", cq.Var("c"), cq.Var("a")),
		cq.NewAtom("E", cq.Var("a"), cq.Var("b")),
		cq.NewAtom("E", cq.Var("b"), cq.Var("c")),
	})
	if got := QueryKey(cq.NewUCQ(q)); got != k {
		t.Fatalf("triangle reordering changed the key:\n%s\n%s", k, got)
	}
}

// Abstract keeps the constants of the views verbatim, gives equal
// constants one parameter (in the head, the atoms and the equalities) and
// distinct constants distinct ones, so queries that differ only in their
// other constants share a template key and queries with another equality
// pattern do not.
func TestAbstractTemplateKeys(t *testing.T) {
	fixed := map[string]bool{"emea": true}
	q := func(u, v, w string) *cq.UCQ {
		return cq.NewUCQ(cq.NewCQ([]cq.Term{cq.Cst(u), cq.Var("i")}, []cq.Atom{
			cq.NewAtom("txn", cq.Cst(u), cq.Var("i"), cq.Var("a")),
			cq.NewAtom("acct", cq.Cst(v), cq.Cst("emea")),
		}, cq.Equality{L: cq.Var("a"), R: cq.Cst(w)}))
	}
	abs, b := Abstract(q("u1", "u2", "u1"), fixed)
	if want := (Binding{"u1", "u2"}); fmt.Sprint(b) != fmt.Sprint(want) {
		t.Fatalf("binding %q, want %q", b, want)
	}
	d := abs.Disjuncts[0]
	if d.Head[0].Val != param(0) || d.Atoms[1].Args[0].Val != param(1) || d.Eqs[0].R.Val != param(0) {
		t.Fatalf("constants not abstracted: %s", d)
	}
	if d.Atoms[1].Args[1].Val != "emea" {
		t.Fatalf("view constant abstracted: %s", d)
	}
	if QueryKey(b.Query(abs)) != QueryKey(q("u1", "u2", "u1")) {
		t.Fatal("instantiation does not give back the query")
	}
	tkey := func(u *cq.UCQ) string { a, _ := Abstract(u, fixed); return QueryKey(a) }
	if tkey(q("u7", "x", "u7")) != QueryKey(abs) {
		t.Fatal("a rebinding of the same shape must share the template key")
	}
	for _, other := range []*cq.UCQ{
		q("u1", "u1", "u1"),   // merges two parameters
		q("u1", "emea", "u1"), // binds a view constant
		q("u1", "u2", "u3"),   // splits a parameter
	} {
		if tkey(other) == QueryKey(abs) {
			t.Fatalf("%s must not share the template of %s", other.Disjuncts[0], q("u1", "u2", "u1").Disjuncts[0])
		}
	}
	// A view constant that looks like a parameter disables abstraction.
	if _, b := Abstract(q("u1", "u2", "u1"), map[string]bool{param(0): true}); b != nil {
		t.Fatalf("abstracted next to a parameter-like view constant: %q", b)
	}
}

// Binding.Plan puts the bound constants into Const leaves and constant
// selection conditions of a copy, and leaves the template plan as it was.
func TestBindingPlan(t *testing.T) {
	tmpl := &Select{
		Child: &Product{L: &Const{Attr: "c", Val: param(0)}, R: &View{Name: "V", Cols: []string{"a", "b"}}},
		Cond:  []CondItem{{L: "a", RConst: true, R: param(1)}, {L: "b", R: "c"}, {L: "b", RConst: true, R: "emea"}},
	}
	before := Render(tmpl)
	got := Render(Binding{"u1", "u2"}.Plan(tmpl))
	want := Render(&Select{
		Child: &Product{L: &Const{Attr: "c", Val: "u1"}, R: &View{Name: "V", Cols: []string{"a", "b"}}},
		Cond:  []CondItem{{L: "a", RConst: true, R: "u2"}, {L: "b", R: "c"}, {L: "b", RConst: true, R: "emea"}},
	})
	if got != want {
		t.Fatalf("bound plan:\n%s\nwant:\n%s", got, want)
	}
	if Render(tmpl) != before {
		t.Fatal("binding changed the template plan")
	}
}
