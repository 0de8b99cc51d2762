package instance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/schema"
)

func liveFixture() (*schema.Schema, *access.Schema) {
	s := schema.New(schema.NewRelation("R", "A", "B", "C"))
	a := access.NewSchema(access.NewConstraint("R", []string{"A"}, []string{"B"}, 10))
	return s, a
}

// fetchFrom probes one index version with string values.
func fetchFrom(t *testing.T, vx *VIndex, c *access.Constraint, xval Tuple) []Tuple {
	t.Helper()
	rows, err := fetchStrings(vx, c, xval)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestIndexedSeesAppliedDelta is the staleness regression test: an index
// built once is a snapshot, and fetches against it never see tuples
// inserted afterwards. With incremental index maintenance
// (Database.ApplyDelta + VIndex.Apply), fetches against the new version
// stay fresh.
func TestIndexedSeesAppliedDelta(t *testing.T) {
	s, a := liveFixture()
	db := NewDatabase(s)
	db.MustInsert("R", "x1", "b1", "c1")
	vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Constraints[0]
	apply := func(ins, del []Op) {
		t.Helper()
		applied, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if vx, err = vx.Apply(applied); err != nil {
			t.Fatal(err)
		}
	}

	if rows := fetchFrom(t, vx, c, Tuple{"x1"}); len(rows) != 1 {
		t.Fatalf("baseline fetch: got %v", rows)
	}

	// Insert after BuildVIndex, through the delta path.
	apply([]Op{{Rel: "R", Row: Tuple{"x1", "b2", "c1"}}, {Rel: "R", Row: Tuple{"x9", "b9", "c9"}}}, nil)
	if rows := fetchFrom(t, vx, c, Tuple{"x1"}); len(rows) != 2 {
		t.Fatalf("fetch must see the tuple inserted after BuildVIndex: got %v", rows)
	}
	if rows := fetchFrom(t, vx, c, Tuple{"x9"}); len(rows) != 1 {
		t.Fatalf("fetch must see a fresh X-value inserted after BuildVIndex: got %v", rows)
	}

	// Delete one of them again: the index must retract it.
	apply(nil, []Op{{Rel: "R", Row: Tuple{"x1", "b2", "c1"}}})
	if rows := fetchFrom(t, vx, c, Tuple{"x1"}); len(rows) != 1 || rows[0][1] != "b1" {
		t.Fatalf("after delete, fetch must retract the row: got %v", rows)
	}
}

// TestIndexedApplyCountsSharedProjections pins the reference-counting
// detail of VIndex.Apply: two base rows that agree on X ∪ Y derive ONE
// fetched projection, which must survive the deletion of either row and
// vanish with the last.
func TestIndexedApplyCountsSharedProjections(t *testing.T) {
	s, a := liveFixture() // X={A}, Y={B}: attribute C is outside X ∪ Y
	db := NewDatabase(s)
	vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Constraints[0]
	step := func(ins, del []Op) {
		t.Helper()
		applied, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if vx, err = vx.Apply(applied); err != nil {
			t.Fatal(err)
		}
	}
	step([]Op{{Rel: "R", Row: Tuple{"x", "b", "c1"}}, {Rel: "R", Row: Tuple{"x", "b", "c2"}}}, nil)
	if rows := fetchFrom(t, vx, c, Tuple{"x"}); len(rows) != 1 {
		t.Fatalf("shared AB-projection must be fetched once: got %v", rows)
	}
	step(nil, []Op{{Rel: "R", Row: Tuple{"x", "b", "c1"}}})
	if rows := fetchFrom(t, vx, c, Tuple{"x"}); len(rows) != 1 {
		t.Fatalf("projection still derived by (x,b,c2): got %v", rows)
	}
	step(nil, []Op{{Rel: "R", Row: Tuple{"x", "b", "c2"}}})
	if rows := fetchFrom(t, vx, c, Tuple{"x"}); len(rows) != 0 {
		t.Fatalf("last deriving row gone, projection must vanish: got %v", rows)
	}
}

// count returns the number of occurrences of row in the table.
func count(tbl *Table, row ...string) int {
	key := Tuple(row).Key()
	n := 0
	for _, tu := range tbl.Tuples {
		if tu.Key() == key {
			n++
		}
	}
	return n
}

// TestApplyDeltaMultisetAndShadow exercises the table-level delta path:
// multiset deletes, absent-delete no-ops, and consistency of the
// ID-encoded shadow across heavy random churn.
func TestApplyDeltaMultisetAndShadow(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	db := NewDatabase(s)
	tbl := db.Table("R")

	// Multiset: two copies, deletes remove one at a time.
	if _, err := db.ApplyDelta([]Op{{Rel: "R", Row: Tuple{"a", "b"}}, {Rel: "R", Row: Tuple{"a", "b"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(tbl, "a", "b"); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	a, err := db.ApplyDelta(nil, []Op{{Rel: "R", Row: Tuple{"a", "b"}}, {Rel: "R", Row: Tuple{"zz", "zz"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Deleted) != 1 {
		t.Fatalf("absent delete must be a silent no-op: %+v", a)
	}
	if n := count(tbl, "a", "b"); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}

	// Arity/relation validation happens before any mutation.
	if _, err := db.ApplyDelta([]Op{{Rel: "R", Row: Tuple{"only-one"}}}, nil); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := db.ApplyDelta(nil, []Op{{Rel: "nope", Row: Tuple{"x"}}}); err == nil {
		t.Fatal("unknown relation must error")
	}
	if n := tbl.Len(); n != 1 {
		t.Fatalf("failed batch must not mutate: Len = %d", n)
	}

	// Random churn: shadow and position index stay aligned with Tuples.
	rng := rand.New(rand.NewSource(5))
	var live []Tuple
	live = append(live, Tuple{"a", "b"})
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			k := rng.Intn(len(live))
			row := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := db.ApplyDelta(nil, []Op{{Rel: "R", Row: row}}); err != nil {
				t.Fatal(err)
			}
		} else {
			row := Tuple{fmt.Sprintf("k%d", rng.Intn(40)), fmt.Sprintf("w%d", rng.Intn(40))}
			live = append(live, row)
			if _, err := db.ApplyDelta([]Op{{Rel: "R", Row: row}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tbl.Len() != len(live) {
		t.Fatalf("table has %d rows, oracle has %d", tbl.Len(), len(live))
	}
	idRows := tbl.IDRows()
	if len(idRows) != len(tbl.Tuples) {
		t.Fatalf("shadow out of sync: %d id rows vs %d tuples", len(idRows), len(tbl.Tuples))
	}
	for i, tu := range tbl.Tuples {
		if got := Tuple(db.Dict.Decode(idRows[i])); got.Key() != tu.Key() {
			t.Fatalf("row %d: shadow %v != tuple %v", i, got, tu)
		}
	}
	// Multiset counts match the oracle.
	counts := map[string]int{}
	for _, tu := range live {
		counts[tu.Key()]++
	}
	for key, want := range counts {
		var row Tuple
		for _, tu := range live {
			if tu.Key() == key {
				row = tu
				break
			}
		}
		if got := count(tbl, row...); got != want {
			t.Fatalf("Count(%v) = %d, want %d", row, got, want)
		}
	}
}
