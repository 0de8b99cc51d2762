package intern

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	words := []string{"a", "b", "", "a", "\x1f", "b", "long value with spaces"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = d.ID(w)
	}
	if ids[0] != ids[3] || ids[1] != ids[5] {
		t.Fatal("re-interning must return the same ID")
	}
	if d.Len() != 5 {
		t.Fatalf("want 5 distinct values, got %d", d.Len())
	}
	for i, w := range words {
		if got := d.Decode(ids[i : i+1])[0]; got != w {
			t.Fatalf("Decode(ID(%q)) = %q", w, got)
		}
	}
	if got, ok := d.LookupRow([]string{"b", "a"}); !ok || got[0] != ids[1] || got[1] != ids[0] {
		t.Fatalf("LookupRow(b, a) = %v, %v", got, ok)
	}
	if _, ok := d.LookupRow([]string{"a", "absent"}); ok || d.Len() != 5 {
		t.Fatal("LookupRow must not intern")
	}
	row := []string{"x", "y", "x"}
	enc := d.Encode(row)
	if enc[0] != enc[2] || enc[0] == enc[1] {
		t.Fatal("Encode must preserve equality structure")
	}
	dec := d.Decode(enc)
	for i := range row {
		if dec[i] != row[i] {
			t.Fatalf("Decode mismatch at %d: %q != %q", i, dec[i], row[i])
		}
	}
	all := d.DecodeAll([][]uint32{enc, enc})
	if len(all) != 2 || all[1][1] != "y" {
		t.Fatal("DecodeAll mismatch")
	}
	if d.DecodeAll(nil) != nil {
		t.Fatal("DecodeAll(nil) must be nil")
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	const workers, values = 8, 500
	var wg sync.WaitGroup
	got := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, values)
			for i := 0; i < values; i++ {
				ids[i] = d.ID(fmt.Sprintf("v%03d", i))
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	if d.Len() != values {
		t.Fatalf("want %d distinct values, got %d", values, d.Len())
	}
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d disagrees on ID of v%03d", w, i)
			}
		}
	}
}

// collide is a pair of distinct rows with the same Hash, so they share a
// bucket of every container keyed on both their positions.
var collide = [2][]uint32{{2216829733, 5}, {316529882, 2499804744}}

// TestGrouper: a group's value starts at zero, lives inline (At and Get
// agree), is found from a probe at other positions by GetAt, and goes with
// Remove; two rows whose keys share a hash keep separate groups.
func TestGrouper(t *testing.T) {
	if Hash(collide[0]) != Hash(collide[1]) || RowsEq(collide[0], collide[1]) {
		t.Fatalf("%v and %v are not a colliding pair", collide[0], collide[1])
	}
	g := NewGrouper[int]([]int{2, 0})
	a := []uint32{1, 9, 2}
	if v := g.At(a); *v != 0 {
		t.Fatalf("first sight of %v reads %d, want 0", a, *v)
	}
	*g.At(a) += 5
	*g.At([]uint32{1, 7, 2}) += 1 // same key (2, 1)
	*g.At([]uint32{2, 7, 1}) += 10
	if v := g.Get(a); v == nil || *v != 6 {
		t.Fatalf("Get(%v) = %v, want 6", a, v)
	}
	if g.Get([]uint32{1, 9, 3}) != nil {
		t.Fatal("Get of an absent key must yield nil")
	}
	// GetAt probes the key (2, 1) laid out at other positions.
	if v := g.GetAt([]uint32{1, 2, 5}, []int{1, 0}); v == nil || *v != 6 {
		t.Fatalf("GetAt = %v, want 6", v)
	}
	if g.GetAt([]uint32{1, 2, 5}, []int{1, 2}) != nil {
		t.Fatal("GetAt of an absent key must yield nil")
	}
	seen := map[string]int{}
	g.Each(func(key []uint32, val *int) { seen[fmt.Sprint(key)] = *val })
	if fmt.Sprint(seen) != "map[[1 2]:10 [2 1]:6]" {
		t.Fatalf("Each visits %v", seen)
	}
	if !g.Remove(a) || g.Get(a) != nil || g.Remove(a) {
		t.Fatal("Remove must drop the group once")
	}
	if v := g.At(a); *v != 0 {
		t.Fatalf("a removed group comes back at %d, want 0", *v)
	}

	// The colliding pair, keyed on both positions, shares one bucket.
	c := NewGrouper[[]int]([]int{0, 1})
	for i, r := range collide {
		*c.At(r) = append(*c.At(r), i)
	}
	if len(c.buckets) != 1 {
		t.Fatalf("the colliding pair fills %d buckets, want 1", len(c.buckets))
	}
	for i, r := range collide {
		if v := c.Get(r); v == nil || len(*v) != 1 || (*v)[0] != i {
			t.Fatalf("row %d reads %v", i, v)
		}
	}
	for i := range collide {
		if !c.Remove(collide[i]) || c.Get(collide[i]) != nil {
			t.Fatalf("Remove of colliding row %d failed", i)
		}
		if v := c.Get(collide[1-i]); v == nil || (*v)[0] != 1-i {
			t.Fatalf("removing row %d lost row %d: %v", i, 1-i, v)
		}
		*c.At(collide[i]) = []int{i}
	}
}

// TestSet: RowSet tells rows apart by order, length and content, through
// a shared bucket too, tests projections with HasAt and AddAt, and grows
// from the zero value.
func TestSet(t *testing.T) {
	var s RowSet
	if s.Has([]uint32{1}) || s.HasAt([]uint32{1}, []int{0}) {
		t.Fatal("the zero set holds nothing")
	}
	if !s.Add([]uint32{1, 2}) || s.Add([]uint32{1, 2}) {
		t.Fatal("Add must report first insertion only")
	}
	if !s.Add([]uint32{2, 1}) {
		t.Fatal("order matters")
	}
	if !s.Add([]uint32{1, 2, 3}) || !s.Add(nil) || s.Add([]uint32{}) {
		t.Fatal("length matters")
	}
	if len(s.Rows) != 4 || !s.Has([]uint32{1, 2}) || !s.Has(nil) || s.Has([]uint32{9}) {
		t.Fatal("membership wrong")
	}
	if !s.HasAt([]uint32{9, 2, 1, 9}, []int{2, 1}) {
		t.Fatal("HasAt must test the projection")
	}
	if s.HasAt([]uint32{9, 2, 1, 9}, []int{0, 1}) {
		t.Fatal("HasAt must miss projections that were never added")
	}
	if s.AddAt(nil, []uint32{9, 2, 1, 9}, []int{2, 1}) {
		t.Fatal("AddAt must find the existing projection")
	}
	if !s.AddAt(nil, []uint32{9, 2, 1, 9}, []int{0, 1}) || !RowsEq(s.Rows[4], []uint32{9, 2}) {
		t.Fatalf("AddAt must add new projections, got %v", s.Rows)
	}
	for _, r := range collide {
		if !s.Add(r) {
			t.Fatalf("colliding row %v not added", r)
		}
	}
	for _, r := range collide {
		if s.Add(r) || !s.Has(r) || !s.HasAt([]uint32{0, r[0], r[1]}, []int{1, 2}) {
			t.Fatalf("colliding row %v lost", r)
		}
	}

	var g RowSet
	for i := range 1000 {
		if !g.Add([]uint32{uint32(i), 7}) {
			t.Fatalf("row %d not new", i)
		}
	}
	if len(g.Rows) != 1000 || 2*len(g.Rows) > len(g.slots) {
		t.Fatalf("%d rows in %d slots", len(g.Rows), len(g.slots))
	}
	for i := range 1000 {
		if !g.Has([]uint32{uint32(i), 7}) || g.Rows[i][0] != uint32(i) {
			t.Fatalf("row %d lost after growth", i)
		}
	}
	if g.Has([]uint32{1000, 7}) {
		t.Fatal("Has reports an absent row after growth")
	}
}

func TestHashAtMatchesHash(t *testing.T) {
	row := []uint32{7, 8, 9, 10}
	pos := []int{2, 0}
	if HashAt(row, pos) != Hash(Project(row, pos)) {
		t.Fatal("HashAt must agree with Hash of the projection")
	}
	if Hash(nil) != Hash([]uint32{}) {
		t.Fatal("nil and empty rows must hash alike")
	}
}

func TestDictStringsRangeFromStrings(t *testing.T) {
	d := NewDict()
	words := []string{"a", "b", "", "c d", "\x00weird"}
	for _, w := range words {
		d.ID(w)
	}
	if got := d.StringsRange(0, d.Len()); len(got) != len(words) {
		t.Fatalf("full range has %d strings, want %d", len(got), len(words))
	}
	if got := d.StringsRange(2, 4); len(got) != 2 || got[0] != "" || got[1] != "c d" {
		t.Fatalf("StringsRange(2,4) = %q", got)
	}
	// Out-of-bounds and inverted ranges clamp to nil/shorter, never panic.
	if d.StringsRange(4, 2) != nil || d.StringsRange(-3, -1) != nil {
		t.Fatal("degenerate ranges must be empty")
	}
	if got := d.StringsRange(3, 99); len(got) != 2 {
		t.Fatalf("clamped range has %d strings, want 2", len(got))
	}
	// The recovery inverse: FromStrings assigns ID i to the i-th string.
	r, ok := FromStrings(d.StringsRange(0, d.Len()))
	if !ok {
		t.Fatal("FromStrings rejected a valid serialization")
	}
	for i, w := range words {
		if id := r.ID(w); id != uint32(i) {
			t.Fatalf("restored ID(%q) = %d, want %d", w, id, i)
		}
	}
	if r.Len() != len(words) {
		t.Fatalf("restored Len = %d, want %d", r.Len(), len(words))
	}
	// New interning continues past the restored prefix.
	if id := r.ID("fresh"); id != uint32(len(words)) {
		t.Fatalf("post-restore intern got ID %d, want %d", id, len(words))
	}
	if _, ok := FromStrings([]string{"x", "y", "x"}); ok {
		t.Fatal("FromStrings must reject duplicates")
	}
}

// TestFlatIndexMatchesScan checks FlatIndex lookups against a linear scan
// over random rows: every key (present or absent, single- or
// multi-column, probed from a differently laid-out row) returns exactly
// the rows whose projection equals it, in row order.
func TestFlatIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = []uint32{uint32(rng.Intn(12)), uint32(rng.Intn(5)), uint32(i)}
		}
		for _, c := range []struct{ pos, probePos []int }{
			{[]int{0}, []int{1}},
			{[]int{1, 0}, []int{0, 1}},
			{[]int{2}, []int{2}},
		} {
			pos := c.pos
			ix := NewFlatIndex(rows, pos)
			for a := uint32(0); a < 14; a++ {
				for b := uint32(0); b < 6; b++ {
					probe := []uint32{b, a, a}
					key := Project(probe, c.probePos)
					var want [][]uint32
					for _, r := range rows {
						if RowsEq(Project(r, pos), key) {
							want = append(want, r)
						}
					}
					got := ix.Lookup(probe, c.probePos, nil)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("n=%d pos=%v key=%v: got %v want %v", n, pos, key, got, want)
					}
				}
			}
		}
	}
}

// TestRowSetMatchesMap checks RowSet against a map over random rows with
// many repeats: Add and AddAt report exactly the first sighting of each
// row (or projection), Has agrees, and Rows keeps first-added order. The
// sets fill to their bound, so probing wraps around the table.
func TestRowSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 300, 5000} {
		a := new(Arena)
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = []uint32{uint32(rng.Intn(20)), uint32(rng.Intn(20)), uint32(rng.Intn(3))}
		}
		whole, proj := NewRowSet(a, n), NewRowSet(a, n)
		seen, seenProj := map[string]bool{}, map[string]bool{}
		var order [][]uint32
		for _, r := range rows {
			k := fmt.Sprint(r)
			if got := whole.Add(r); got == seen[k] {
				t.Fatalf("n=%d: Add(%v) = %v after %d sightings", n, r, got, len(seen))
			}
			if !seen[k] {
				order = append(order, r)
			}
			seen[k] = true
			pk := fmt.Sprint([]uint32{r[2], r[0]})
			if got := proj.AddAt(a, r, []int{2, 0}); got == seenProj[pk] {
				t.Fatalf("n=%d: AddAt(%v) = %v", n, r, got)
			}
			seenProj[pk] = true
		}
		if len(whole.Rows) != len(seen) || len(proj.Rows) != len(seenProj) {
			t.Fatalf("n=%d: %d and %d rows, want %d and %d", n, len(whole.Rows), len(proj.Rows), len(seen), len(seenProj))
		}
		for i, r := range order {
			if !RowsEq(whole.Rows[i], r) || !whole.Has(r) {
				t.Fatalf("n=%d: row %d is %v, want %v (Has %v)", n, i, whole.Rows[i], r, whole.Has(r))
			}
		}
		if whole.Has([]uint32{99, 99, 99}) {
			t.Fatalf("n=%d: Has reports an absent row", n)
		}
		a.Keep(whole.Rows)
		a.Keep(proj.Rows)
		a.Reset()
	}
}

// TestDecodeAllCapsRows: the decoded rows share one backing array, but
// each is capped, so appending to one row cannot overwrite the next; a
// local ID decodes from the caller's table.
func TestDecodeAllCapsRows(t *testing.T) {
	d := NewDict()
	a, b := d.Encode([]string{"a", "b"}), d.Encode([]string{"c", "d"})
	out := d.DecodeAll([][]uint32{a, b})
	if cap(out[0]) != 2 {
		t.Fatalf("row 0 has capacity %d, want 2", cap(out[0]))
	}
	_ = append(out[0], "x")
	if out[1][0] != "c" {
		t.Fatalf("an append to row 0 overwrote row 1: %v", out[1])
	}
	ids := make([]uint32, 2)
	d.Resolve([]string{"b", "absent"}, ids)
	got := d.DecodeLocal([][]uint32{ids}, []string{"b", "absent"})
	if got[0][0] != "b" || got[0][1] != "absent" || d.Len() != 4 {
		t.Fatalf("resolved %v decode to %v with %d strings interned", ids, got, d.Len())
	}
	if d.DecodeAll(nil) != nil {
		t.Fatal("DecodeAll(nil) is not nil")
	}
}
