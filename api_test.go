package repro

import (
	"testing"

	"repro/internal/fo"
	"repro/internal/workload"
)

// raceEnabled reports a -race build (race_test.go sets it). The race
// detector slows the engine about tenfold, so the largest inputs of the
// size sweeps skip themselves under it; the non-race runs — tier 1 and
// the gates run — still cover them.
var raceEnabled bool

func movieSystem(t testing.TB) (*System, *workload.Movies) {
	t.Helper()
	return movieSystemN0(t, 30)
}

// movieSystemN0 is movieSystem over the Movies fixture whose ϕ1 caps
// movies per (studio, year) at n0.
func movieSystemN0(t testing.TB, n0 int) (*System, *workload.Movies) {
	t.Helper()
	m := workload.NewMovies(n0)
	sys, err := NewSystem(m.Schema, m.Access, m.Views(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

func TestSystemValidation(t *testing.T) {
	m := workload.NewMovies(30)
	// A constraint on a missing relation must be rejected.
	badA := NewAccessSchema(NewConstraint("nope", []string{"x"}, []string{"y"}, 1))
	if _, err := NewSystem(m.Schema, badA, nil, 4); err == nil {
		t.Fatal("invalid access schema must be rejected")
	}
	// A view over a missing relation must be rejected.
	badV := map[string]*UCQ{"V": NewUCQ(NewCQ([]Term{Var("x")}, []Atom{NewAtom("nope", Var("x"))}))}
	if _, err := NewSystem(m.Schema, m.Access, badV, 4); err == nil {
		t.Fatal("invalid view must be rejected")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, m := movieSystem(t)
	res := sys.CheckToppedCQ(mustParse(t, `Qxi(mid) :- movie(mid, y, "Universal", "2014"), V1(mid), rating(mid, "5").`))
	if !res.Topped || res.Size != 11 {
		t.Fatalf("Q_ξ should be topped with an 11-node plan: %v/%d (%s)", res.Topped, res.Size, res.Reason)
	}
	okConf, bound, reason := sys.Conforms(res.Plan)
	if !okConf || bound != int64(2*m.N0) {
		t.Fatalf("conformance: %v %d %s", okConf, bound, reason)
	}
	db := m.Generate(workload.MoviesParams{Persons: 400, Movies: 400, LikesPerPerson: 5, NASAShare: 8, Seed: 1})
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rows, fetched, err := h.Execute(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if fetched > 2*m.N0 {
		t.Fatalf("fetched %d > 2N0", fetched)
	}
	direct, err := sys.EvalDirect(NewUCQ(m.Q0), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(direct) {
		t.Fatalf("plan %d rows, direct %d rows", len(rows), len(direct))
	}
}

func TestSystemAReasoning(t *testing.T) {
	sys, m := movieSystem(t)
	// rating(m, r1) ∧ rating(m, r2) is A-equivalent to its unified form.
	q1 := NewCQ([]Term{Var("r1"), Var("r2")}, []Atom{
		NewAtom("rating", Var("m"), Var("r1")),
		NewAtom("rating", Var("m"), Var("r2")),
	})
	q2 := NewCQ([]Term{Var("r"), Var("r")}, []Atom{NewAtom("rating", Var("m"), Var("r"))})
	if !sys.AEquivalent(NewUCQ(q1), NewUCQ(q2)) {
		t.Fatal("A-equivalence via the rating FD must hold")
	}
	// rating output per mid is bounded (the FD), whole-table is not.
	perMid := NewCQ([]Term{Var("r")}, []Atom{NewAtom("rating", Cst("m17"), Var("r"))})
	if ok, bound := sys.BoundedOutput(NewUCQ(perMid)); !ok || bound != 1 {
		t.Fatalf("per-mid rating must be bounded by 1, got %v/%d", ok, bound)
	}
	all := NewCQ([]Term{Var("m")}, []Atom{NewAtom("rating", Var("m"), Var("r"))})
	if ok, _ := sys.BoundedOutput(NewUCQ(all)); ok {
		t.Fatal("the whole rating table is unbounded")
	}
	_ = m
}

func TestSystemHasBoundedRewriting(t *testing.T) {
	s := NewSchema(NewRelation("R", "A", "B"))
	a := NewAccessSchema(NewConstraint("R", []string{"A"}, []string{"B"}, 2))
	sys, err := NewSystem(s, a, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `Q(x) :- R("a", x).`)
	has, p, err := sys.HasBoundedRewriting(NewUCQ(q), LangCQ)
	if err != nil || !has || p == nil {
		t.Fatalf("expected a rewriting: %v %v", has, err)
	}
	unbounded := mustParse(t, `Q(x, y) :- R(x, y).`)
	has, _, err = sys.HasBoundedRewriting(NewUCQ(unbounded), LangCQ)
	if err != nil || has {
		t.Fatalf("full scan must have no rewriting: %v %v", has, err)
	}
}

func TestSizeBoundedAPI(t *testing.T) {
	inner := &FOQuery{Head: []string{"x"}, Body: FOExpr(fo.NewAtom("R", Var("x")))}
	sb := MakeSizeBounded(inner, 3)
	k, got, ok := IsSizeBounded(sb)
	if !ok || k != 3 || got.Body.String() != inner.Body.String() {
		t.Fatalf("size-bounded round trip failed: %v %d", ok, k)
	}
}

func mustParse(t *testing.T, s string) *CQ {
	t.Helper()
	q, err := ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
