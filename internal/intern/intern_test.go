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

func TestSet(t *testing.T) {
	s := NewSet(0)
	if !s.Add([]uint32{1, 2}) || s.Add([]uint32{1, 2}) {
		t.Fatal("Add must report first insertion only")
	}
	if !s.Add([]uint32{2, 1}) {
		t.Fatal("order matters")
	}
	if !s.Add([]uint32{1, 2, 3}) {
		t.Fatal("length matters")
	}
	if s.Len() != 3 || !s.Has([]uint32{1, 2}) || s.Has([]uint32{9}) {
		t.Fatal("membership wrong")
	}
	if !s.HasAt([]uint32{9, 2, 1, 9}, []int{2, 1}) {
		t.Fatal("HasAt must test the projection")
	}
	if s.HasAt([]uint32{9, 2, 1, 9}, []int{0, 1}) {
		t.Fatal("HasAt must miss projections that were never added")
	}
	if proj, fresh := s.AddProj([]uint32{9, 2, 1, 9}, []int{2, 1}); fresh || proj[0] != 1 || proj[1] != 2 {
		t.Fatal("AddProj must find the existing projection")
	}
	if _, fresh := s.AddProj([]uint32{9, 2, 1, 9}, []int{0, 1}); !fresh {
		t.Fatal("AddProj must add new projections")
	}
}

func TestIndex(t *testing.T) {
	ix := NewDynIndex([]int{0})
	a, b, c := []uint32{1, 10}, []uint32{1, 11}, []uint32{1, 12}
	for _, r := range [][]uint32{a, b, c, {2, 20}} {
		ix.Add(r)
	}
	if got := ix.Get([]uint32{1}); len(got) != 3 {
		t.Fatalf("want 3 rows under key 1, got %d", len(got))
	}
	if got := ix.Get([]uint32{3}); got != nil {
		t.Fatal("missing key must yield nil")
	}
	// GetAt probes the projection of another row at its own positions.
	if got := ix.GetAt([]uint32{5, 2, 9}, []int{1}); len(got) != 1 || got[0][1] != 20 {
		t.Fatal("GetAt must probe the projection")
	}
	if got := ix.GetAt([]uint32{5, 3, 9}, []int{1}); got != nil {
		t.Fatal("GetAt of an absent projection must yield nil")
	}
	// Removing a row from the middle of a group swaps the last row in.
	if !ix.Remove([]uint32{1, 10}) {
		t.Fatal("Remove must find an indexed row by value")
	}
	if got := ix.Get([]uint32{1}); len(got) != 2 || got[0][1] != 12 || got[1][1] != 11 {
		t.Fatalf("swap-delete: want rows 12 and 11 under key 1, got %v", got)
	}
	if ix.Remove([]uint32{1, 10}) || ix.Remove([]uint32{3, 30}) {
		t.Fatal("removing an absent row (in a present group or an absent one) must report false")
	}
	// Removing a group's last row drops the group.
	if !ix.Remove([]uint32{2, 20}) || ix.Get([]uint32{2}) != nil || len(ix.buckets) != 1 {
		t.Fatalf("removing the last row of group 2 must drop it, %d buckets left", len(ix.buckets))
	}
	// Empty key positions (cross products) are a single group.
	ix2 := NewDynIndex(nil)
	ix2.Add([]uint32{1})
	ix2.Add([]uint32{2})
	if got := ix2.Get(nil); len(got) != 2 {
		t.Fatalf("empty key group: want 2 rows, got %d", len(got))
	}
	if got := ix2.GetAt([]uint32{7}, []int{}); len(got) != 2 {
		t.Fatalf("GetAt with no positions: want the 2 rows, got %d", len(got))
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
