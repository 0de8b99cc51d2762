package instance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/schema"
)

// sortedFetch canonicalizes a fetch result for comparison.
func sortedFetch(rows [][]uint32) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// scanFetch is the reference fetch the index is checked against: a scan
// of c's relation filtered on X = key, projected on X ∪ Y, deduplicated.
func scanFetch(t *testing.T, db *Database, c *access.Constraint, key []uint32) [][]uint32 {
	t.Helper()
	tb := db.Table(c.Rel)
	xpos, err := tb.Rel.Positions(c.X)
	if err != nil {
		t.Fatal(err)
	}
	xypos, err := tb.Rel.Positions(c.XY())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out [][]uint32
	for _, r := range tb.IDRows() {
		match := true
		for i, p := range xpos {
			match = match && r[p] == key[i]
		}
		if !match {
			continue
		}
		proj := make([]uint32, len(xypos))
		for i, p := range xypos {
			proj[i] = r[p]
		}
		if k := fmt.Sprint(proj); !seen[k] {
			seen[k] = true
			out = append(out, proj)
		}
	}
	return out
}

// TestVIndexDifferentialRandom drives a random delta stream through the
// versioned VIndex, checking after every batch that every (constraint,
// X-value) probe agrees with a table-scan fetch and with a VIndex freshly
// built over the same database — and that every PINNED older version
// still answers exactly as it did when it was current (persistence:
// later batches never leak into published epochs). G is one group of
// 2000 distinct projections, each stored twice, present at every build,
// so a build whose cost is quadratic in a group's size shows here.
func TestVIndexDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := schema.New(
		schema.NewRelation("R", "A", "B", "C"),
		schema.NewRelation("S", "X", "Y"),
		schema.NewRelation("H", "K", "V"), // heavy groups, grown and cut below
		schema.NewRelation("G", "K", "V"), // one wide group from the start
	)
	a := access.NewSchema(
		access.NewConstraint("R", []string{"A"}, []string{"B"}, 50),
		access.NewConstraint("R", []string{"A", "B"}, []string{"C"}, 50),
		access.NewConstraint("R", nil, []string{"A"}, 50),
		access.NewConstraint("S", []string{"X"}, []string{"Y"}, 50),
		access.NewConstraint("H", []string{"K"}, []string{"V"}, 400),
		access.NewConstraint("G", []string{"K"}, []string{"V"}, 2000),
	)
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(12)) }
	db := NewDatabase(s)
	for i := 0; i < 120; i++ {
		if rng.Intn(2) == 0 {
			db.MustInsert("R", val(), val(), val())
		} else {
			db.MustInsert("S", val(), val())
		}
	}
	const wide = 2000
	for copies := 0; copies < 2; copies++ {
		for i := 0; i < wide; i++ {
			db.MustInsert("G", "v9", fmt.Sprintf("g%d", i))
		}
	}

	vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}

	// All probe keys seen in the value pool (IDs for v0..v11 plus an
	// absent value).
	probes := func(c *access.Constraint) [][]uint32 {
		var keys [][]uint32
		var rec func(prefix []uint32, k int)
		rec = func(prefix []uint32, k int) {
			if k == len(c.X) {
				keys = append(keys, append([]uint32(nil), prefix...))
				return
			}
			for i := 0; i < 12; i++ {
				if id, ok := db.Dict.LookupRow([]string{fmt.Sprintf("v%d", i)}); ok {
					rec(append(prefix, id[0]), k+1)
				}
			}
		}
		rec(nil, 0)
		return keys
	}
	agree := func(step string, vx *VIndex) {
		t.Helper()
		fresh, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range a.Constraints {
			for _, key := range probes(c) {
				want := sortedFetch(scanFetch(t, db, c, key))
				got, err1 := vx.FetchIDs(c, key)
				built, err2 := fresh.FetchIDs(c, key)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %s(%v): applied error %v, fresh error %v", step, c, key, err1, err2)
				}
				if sortedFetch(got) != want {
					t.Fatalf("%s: %s(%v) diverges:\napplied %v\nscan    %v", step, c, key, got, want)
				}
				if sortedFetch(built) != want {
					t.Fatalf("%s: %s(%v) diverges:\nfresh %v\nscan  %v", step, c, key, built, want)
				}
			}
		}
	}
	agree("initial", vx)

	type pinned struct {
		vx     *VIndex
		answer map[string]string // constraint|key -> canonical result
	}
	freeze := func(vx *VIndex) pinned {
		ans := map[string]string{}
		for _, c := range a.Constraints {
			for _, key := range probes(c) {
				rows, _ := vx.FetchIDs(c, key)
				ans[c.Key()+"|"+fmt.Sprint(key)] = sortedFetch(rows)
			}
		}
		return pinned{vx: vx, answer: ans}
	}
	var pins []pinned
	step := func(ins, del []Op) {
		t.Helper()
		applied, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		next, err := vx.Apply(applied)
		if err != nil {
			t.Fatal(err)
		}
		vx = next
	}

	live := map[string][]Tuple{}
	for name, tb := range db.Tables {
		for _, tu := range tb.Tuples {
			live[name] = append(live[name], tu.Clone())
		}
	}
	for b := 0; b < 30; b++ {
		var ins, del []Op
		for o := 0; o < 15; o++ {
			rel := "R"
			if rng.Intn(2) == 0 {
				rel = "S"
			}
			arity := s.Relation(rel).Arity()
			switch {
			case rng.Float64() < 0.45 && len(live[rel]) > 0:
				i := rng.Intn(len(live[rel]))
				row := live[rel][i]
				live[rel][i] = live[rel][len(live[rel])-1]
				live[rel] = live[rel][:len(live[rel])-1]
				del = append(del, Op{Rel: rel, Row: row})
			default:
				row := make(Tuple, arity)
				for j := range row {
					row[j] = val()
				}
				live[rel] = append(live[rel], row)
				ins = append(ins, Op{Rel: rel, Row: row.Clone()})
			}
		}
		step(ins, del)
		agree(fmt.Sprintf("batch %d", b), vx)
		if b%7 == 0 {
			pins = append(pins, freeze(vx))
		}
	}

	// Heavy delete: grow 8 keys to 300 rows each, then delete about 7/8
	// of them in one batch, with one copy of half of G's rows and both
	// copies of a tenth. Both the shrunk version and the pinned pre-delete
	// version must keep answering exactly.
	var ins, del []Op
	for k := 0; k < 8; k++ {
		for i := 0; i < 300; i++ {
			ins = append(ins, Op{Rel: "H", Row: Tuple{fmt.Sprintf("v%d", k), fmt.Sprintf("h%d", i)}})
		}
	}
	step(ins, nil)
	agree("heavy grow", vx)
	pins = append(pins, freeze(vx))
	for k := 0; k < 8; k++ {
		for i := 0; i < 280; i++ {
			if rng.Intn(8) != 0 {
				del = append(del, Op{Rel: "H", Row: Tuple{fmt.Sprintf("v%d", k), fmt.Sprintf("h%d", i)}})
			}
		}
	}
	for i := 0; i < wide; i += 2 {
		del = append(del, Op{Rel: "G", Row: Tuple{"v9", fmt.Sprintf("g%d", i)}})
		if i%10 == 0 {
			del = append(del, Op{Rel: "G", Row: Tuple{"v9", fmt.Sprintf("g%d", i)}})
		}
	}
	step(nil, del)
	agree("heavy delete", vx)

	// Persistence: every pinned version still answers exactly as frozen.
	for i, p := range pins {
		for _, c := range a.Constraints {
			for _, key := range probes(c) {
				rows, _ := p.vx.FetchIDs(c, key)
				if got := sortedFetch(rows); got != p.answer[c.Key()+"|"+fmt.Sprint(key)] {
					t.Fatalf("pin %d: %s(%v) drifted after later batches:\nnow  %s\nwas %s",
						i, c, key, got, p.answer[c.Key()+"|"+fmt.Sprint(key)])
				}
			}
		}
	}
}

// fetchStrings probes vx with string values, the way Snapshot.Fetch does:
// the decoded distinct XY-projections, none for a value that never occurs
// in D (it is looked up as an ID no interned value has).
func fetchStrings(vx *VIndex, c *access.Constraint, xval Tuple) ([]Tuple, error) {
	key := make([]uint32, len(xval))
	for i, v := range xval {
		key[i] = ^uint32(0)
		if id, ok := vx.Dict().LookupRow([]string{v}); ok {
			key[i] = id[0]
		}
	}
	idRows, err := vx.FetchIDs(c, key)
	if err != nil {
		return nil, err
	}
	var rows []Tuple
	for _, r := range idRows {
		rows = append(rows, Tuple(vx.Dict().Decode(r)))
	}
	return rows, nil
}

// buildVIndex builds the fetch index over db's current contents.
func buildVIndex(t testing.TB, db *Database, a *access.Schema) *VIndex {
	t.Helper()
	vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	return vx
}

// TestVIndexFetchStrings probes the index with string values: decoded
// distinct projections out, and none for a value that never occurs in D.
func TestVIndexFetchStrings(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 3))
	db := NewDatabase(s)
	db.MustInsert("R", "k", "x")
	db.MustInsert("R", "k", "y")
	db.MustInsert("R", "k", "x") // duplicate: one distinct projection
	vx := buildVIndex(t, db, a)
	rows, err := fetchStrings(vx, a.Constraints[0], Tuple{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("fetch returned %v, want 2 distinct projections", rows)
	}
	if vx.Dict() != db.Dict {
		t.Fatal("the index must serve the database dictionary")
	}
	if rows, err = fetchStrings(vx, a.Constraints[0], Tuple{"absent"}); err != nil || rows != nil {
		t.Fatalf("absent key: %v %v", rows, err)
	}
}

// TestVIndexProbeAllocs: a fetch-index probe allocates nothing — the
// constraint's key, which selects the per-constraint trie, is computed
// once by access.NewConstraint, not per probe.
func TestVIndexProbeAllocs(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 3))
	db := NewDatabase(s)
	db.MustInsert("R", "k", "x")
	db.MustInsert("R", "k", "y")
	vx := buildVIndex(t, db, a)
	key := []uint32{db.Dict.ID("k")}
	var rows [][]uint32
	allocs := testing.AllocsPerRun(100, func() { rows, _ = vx.FetchIDs(a.Constraints[0], key) })
	if len(rows) != 2 {
		t.Fatalf("probe fetched %d rows, want 2", len(rows))
	}
	if allocs != 0 {
		t.Fatalf("a VIndex probe allocates %.1f times, want 0", allocs)
	}
}

// TestConstraintXYAllocs: XY is computed once by NewConstraint, so naming
// a fetch's outputs by it allocates nothing, and the shared slice is
// capped, so a caller's append cannot write into it.
func TestConstraintXYAllocs(t *testing.T) {
	c := access.NewConstraint("R", []string{"B", "A"}, []string{"C", "A"}, 3)
	var xy []string
	if allocs := testing.AllocsPerRun(100, func() { xy = c.XY() }); allocs != 0 {
		t.Fatalf("XY allocates %.1f times, want 0", allocs)
	}
	if strings.Join(xy, ",") != "A,B,C" {
		t.Fatalf("XY = %v, want [A B C]", xy)
	}
	_ = append(xy, "D")
	if got := c.XY(); len(got) != 3 || cap(got) != 3 {
		t.Fatalf("after a caller's append XY = %v (cap %d)", got, cap(got))
	}
	lit := &access.Constraint{Rel: "R", X: []string{"A"}, Y: []string{"B"}, N: 1}
	if strings.Join(lit.XY(), ",") != "A,B" {
		t.Fatalf("literal constraint XY = %v", lit.XY())
	}
}
