package instance

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/schema"
)

func fixture() (*schema.Schema, *access.Constraint) {
	s := schema.New(schema.NewRelation("R", "A", "B", "C"))
	c := access.NewConstraint("R", []string{"A"}, []string{"B"}, 2)
	return s, c
}

func TestSatisfies(t *testing.T) {
	s, c := fixture()
	db := NewDatabase(s)
	db.MustInsert("R", "a", "1", "x")
	db.MustInsert("R", "a", "2", "y")
	ok, err := db.Satisfies(c)
	if err != nil || !ok {
		t.Fatalf("two B-values within bound: %v %v", ok, err)
	}
	// The same B twice does not add a distinct value.
	db.MustInsert("R", "a", "2", "z")
	if ok, _ := db.Satisfies(c); !ok {
		t.Fatal("duplicate Y-projection must not count twice")
	}
	db.MustInsert("R", "a", "3", "w")
	if ok, _ := db.Satisfies(c); ok {
		t.Fatal("three distinct B-values violate the bound")
	}
}

// TestSatisfiesBoundary: an X-group with exactly N distinct
// Y-projections satisfies the constraint and one more violates it; rows
// that differ only outside XY count once; and the outcome does not depend
// on the order the rows went in.
func TestSatisfiesBoundary(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B", "C", "D"))
	c := access.NewConstraint("R", []string{"A"}, []string{"B", "C"}, 3)
	// Group a holds N = 3 distinct (B, C) projections over six rows that
	// differ in D; group b holds two.
	base := [][]string{
		{"a", "1", "x", "p"}, {"a", "1", "x", "q"}, {"a", "1", "x", "r"},
		{"a", "1", "y", "p"}, {"a", "2", "x", "p"}, {"a", "2", "x", "q"},
		{"b", "1", "x", "p"}, {"b", "3", "z", "p"},
	}
	over := []string{"a", "x", "1", "p"} // a fourth projection of group a
	rng := rand.New(rand.NewSource(1))
	for trial := range 24 {
		for _, extra := range [][]string{nil, over} {
			rows := slices.Clone(base)
			if extra != nil {
				rows = append(rows, extra)
			}
			if trial > 0 {
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			}
			db := NewDatabase(s)
			for _, r := range rows {
				db.MustInsert("R", r...)
			}
			ok, err := db.Satisfies(c)
			if err != nil || ok != (extra == nil) {
				t.Fatalf("trial %d, rows %v: Satisfies = %v, %v; want %v", trial, rows, ok, err, extra == nil)
			}
		}
	}
}

func TestInsertArity(t *testing.T) {
	s, _ := fixture()
	db := NewDatabase(s)
	if err := db.Insert("R", "a", "b"); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := db.Insert("nope", "a"); err == nil {
		t.Fatal("unknown relation must fail")
	}
}

func TestFetchReturnsProjections(t *testing.T) {
	s, c := fixture()
	a := access.NewSchema(c)
	db := NewDatabase(s)
	db.MustInsert("R", "a", "1", "x")
	db.MustInsert("R", "a", "2", "y")
	db.MustInsert("R", "b", "9", "z")
	// Same (A,B) with different C: the XY-projection is deduplicated.
	db.MustInsert("R", "a", "1", "other")
	vx := buildVIndex(t, db, a)
	rows, err := fetchStrings(vx, c, Tuple{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want the 2 distinct (A,B) projections, got %v", rows)
	}
	// Missing key: empty.
	rows, err = fetchStrings(vx, c, Tuple{"zzz"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("missing key: %v %v", rows, err)
	}
	// Wrong input arity.
	if _, err := fetchStrings(vx, c, Tuple{"a", "b"}); err == nil {
		t.Fatal("wrong input arity must fail")
	}
}

func TestEmptyXFetch(t *testing.T) {
	s := schema.New(schema.NewRelation("S", "V"))
	c := access.NewConstraint("S", nil, []string{"V"}, 3)
	db := NewDatabase(s)
	db.MustInsert("S", "1")
	db.MustInsert("S", "2")
	vx := buildVIndex(t, db, access.NewSchema(c))
	rows, err := fetchStrings(vx, c, nil)
	if err != nil || len(rows) != 2 {
		t.Fatalf("empty-X fetch returns the whole projection: %v %v", rows, err)
	}
}

func TestActiveDomainAndClone(t *testing.T) {
	s, _ := fixture()
	db := NewDatabase(s)
	db.MustInsert("R", "a", "b", "c")
	cl := db.Clone()
	cl.MustInsert("R", "x", "y", "z")
	if db.Size() != 1 || cl.Size() != 2 {
		t.Fatal("clone must be independent")
	}
}

// Property: fetch results always agree with a full scan filtered on X.
func TestFetchAgreesWithScan(t *testing.T) {
	s, c := fixture()
	a := access.NewSchema(c)
	f := func(rows [][3]byte, probe byte) bool {
		db := NewDatabase(s)
		fan := map[string]map[string]bool{}
		for _, r := range rows {
			av, bv, cv := dom(r[0]), dom(r[1]), dom(r[2])
			// Respect the bound during generation (skip violating rows).
			g := fan[av]
			if g == nil {
				g = map[string]bool{}
				fan[av] = g
			}
			if !g[bv] && len(g) >= 2 {
				continue
			}
			g[bv] = true
			db.MustInsert("R", av, bv, cv)
		}
		if ok, _ := db.SatisfiesAll(a); !ok {
			return false
		}
		vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
		if err != nil {
			return false
		}
		key := dom(probe)
		got, err := fetchStrings(vx, c, Tuple{key})
		if err != nil {
			return false
		}
		want := map[string]bool{}
		for _, tu := range db.Table("R").Tuples {
			if tu[0] == key {
				want[tu[0]+"\x1f"+tu[1]] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, r := range got {
			if !want[r[0]+"\x1f"+r[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func dom(b byte) string {
	return string(rune('a' + b%5))
}
