package eval

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/schema"
)

func graphDB() (*schema.Schema, *instance.Database) {
	s := schema.New(schema.NewRelation("E", "A", "B"))
	db := instance.NewDatabase(s)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "c"}} {
		db.MustInsert("E", e[0], e[1])
	}
	return s, db
}

func TestCQOnDBPaths(t *testing.T) {
	_, db := graphDB()
	q := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("z")}, []cq.Atom{
		cq.NewAtom("E", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("E", cq.Var("y"), cq.Var("z")),
	})
	got, err := CQOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	// 2-paths over a→b, b→c, c→a, a→c.
	want := [][]string{{"a", "c"}, {"a", "a"}, {"b", "a"}, {"c", "b"}, {"c", "c"}}
	if !cq.RowsEqual(got, want) {
		slices.SortFunc(got, slices.Compare)
		t.Fatalf("got %v", got)
	}
}

func TestCQOnDBSelfJoinRepeatedVar(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	db := instance.NewDatabase(s)
	db.MustInsert("R", "a", "a")
	db.MustInsert("R", "a", "b")
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("x"))})
	got, err := CQOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"a"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestCQOnDBConstantQuery(t *testing.T) {
	q := cq.NewCQ([]cq.Term{cq.Cst("k")}, nil)
	got, err := CQOnDB(q, &Source{})
	if err != nil || len(got) != 1 || got[0][0] != "k" {
		t.Fatalf("constant query: %v %v", got, err)
	}
	unsafe := cq.NewCQ([]cq.Term{cq.Var("x")}, nil)
	if _, err := CQOnDB(unsafe, &Source{}); err == nil {
		t.Fatal("unsafe constant query must fail")
	}
}

// Property: CQOnDB agrees with the reference homomorphism evaluator on
// random small graphs and the 2-path query.
func TestCQOnDBAgreesWithHomSearch(t *testing.T) {
	s := schema.New(schema.NewRelation("E", "A", "B"))
	q := cq.NewCQ([]cq.Term{cq.Var("x"), cq.Var("z")}, []cq.Atom{
		cq.NewAtom("E", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("E", cq.Var("y"), cq.Var("z")),
	})
	f := func(edges [][2]byte) bool {
		db := instance.NewDatabase(s)
		rows := map[string][][]string{}
		for _, e := range edges {
			a, b := dom(e[0]), dom(e[1])
			db.MustInsert("E", a, b)
			rows["E"] = append(rows["E"], []string{a, b})
		}
		fast, err := CQOnDB(q, &Source{DB: db})
		if err != nil {
			return false
		}
		ref, complete := cq.EvalOnRows(q, rows)
		return complete && cq.RowsEqual(fast, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFOOnDBNegation(t *testing.T) {
	_, db := graphDB()
	// Nodes with an out-edge but no self-loop 2-path back: x with E(x,y) ∧ ¬E(y,x).
	q := &fo.Query{Head: []string{"x"}, Body: &fo.Exists{Vars: []string{"y"}, E: &fo.And{
		L: fo.NewAtom("E", cq.Var("x"), cq.Var("y")),
		R: &fo.Not{E: fo.NewAtom("E", cq.Var("y"), cq.Var("x"))},
	}}}
	got, err := FOOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	// Edges: a→b (no b→a): a qualifies; b→c (no c→b): b qualifies;
	// c→a but a→c exists, c↛... c→a has back-edge a→c, so c does not
	// qualify via a; a→c has back c→a: no. So {a, b}.
	if !cq.RowsEqual(got, [][]string{{"a"}, {"b"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestFOOnDBUniversal(t *testing.T) {
	_, db := graphDB()
	// Nodes whose every out-neighbor has an out-edge back to "a":
	// Q(x) = ∃y E(x,y) ∧ ∀z (E(x,z) → E(z,"a")).
	q := &fo.Query{Head: []string{"x"}, Body: &fo.And{
		L: &fo.Exists{Vars: []string{"y"}, E: fo.NewAtom("E", cq.Var("x"), cq.Var("y"))},
		R: &fo.Forall{Vars: []string{"z"}, E: &fo.Implies{
			A: fo.NewAtom("E", cq.Var("x"), cq.Var("z")),
			B: fo.NewAtom("E", cq.Var("z"), cq.Cst("a")),
		}},
	}}
	got, err := FOOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	// a→{b,c}: b→c? b's edge to a? b→c only... E(b,a)? no → a fails.
	// b→{c}: E(c,a) yes → b qualifies. c→{a}: E(a,?a)... E(a,a)? no → c fails.
	if !cq.RowsEqual(got, [][]string{{"b"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestFOOnDBEqualityExtension(t *testing.T) {
	_, db := graphDB()
	// Q(x, w) = E(x, y) ∧ y = "b" ∧ w = "tag": equality both filters and
	// extends.
	q := &fo.Query{Head: []string{"x", "w"}, Body: &fo.Exists{Vars: []string{"y"}, E: fo.Conj(
		fo.NewAtom("E", cq.Var("x"), cq.Var("y")),
		fo.Eq(cq.Var("y"), cq.Cst("b")),
		fo.Eq(cq.Var("w"), cq.Cst("tag")),
	)}}
	got, err := FOOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"a", "tag"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestFOOnDBInequality(t *testing.T) {
	_, db := graphDB()
	q := &fo.Query{Head: []string{"x", "y"}, Body: &fo.And{
		L: fo.NewAtom("E", cq.Var("x"), cq.Var("y")),
		R: fo.Neq(cq.Var("x"), cq.Cst("a")),
	}}
	got, err := FOOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got, [][]string{{"b", "c"}, {"c", "a"}}) {
		t.Fatalf("got %v", got)
	}
}

// Property: FO evaluation of an embedded CQ agrees with CQ evaluation.
func TestFOAgreesWithCQOnRandomGraphs(t *testing.T) {
	s := schema.New(schema.NewRelation("E", "A", "B"))
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{
		cq.NewAtom("E", cq.Var("x"), cq.Var("y")),
		cq.NewAtom("E", cq.Var("y"), cq.Var("x")),
	})
	fq := fo.FromCQ(q)
	f := func(edges [][2]byte) bool {
		db := instance.NewDatabase(s)
		for _, e := range edges {
			db.MustInsert("E", dom(e[0]), dom(e[1]))
		}
		a, err1 := CQOnDB(q, &Source{DB: db})
		b, err2 := FOOnDB(fq, &Source{DB: db})
		if err1 != nil || err2 != nil {
			return false
		}
		return cq.RowsEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterialize(t *testing.T) {
	_, db := graphDB()
	v := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("E", cq.Cst("a"), cq.Var("x"))})
	views, err := Materialize(map[string]*cq.UCQ{"V": cq.NewUCQ(v)}, db)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(views["V"], [][]string{{"b"}, {"c"}}) {
		t.Fatalf("got %v", views["V"])
	}
	// Views are visible as relations to later queries via Source.
	q := cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("V", cq.Var("x"))})
	rows, err := CQOnDB(q, &Source{DB: db, Views: views})
	if err != nil || len(rows) != 2 {
		t.Fatalf("views must be queryable: %v %v", rows, err)
	}
}

func dom(b byte) string {
	return fmt.Sprintf("%c", 'a'+b%4)
}
