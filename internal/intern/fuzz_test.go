package intern

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzRow decodes one row of an op: three narrow columns with values 0–7,
// so that rows share keys, or, when op's top bit is set, one of the
// colliding pair widened by a third column, so that rows share buckets.
func fuzzRow(op, arg byte) []uint32 {
	if op&0x80 != 0 {
		c := collide[arg&1]
		return []uint32{c[0], c[1], uint32(arg >> 1 & 7)}
	}
	return []uint32{uint32(arg & 7), uint32(arg >> 3 & 7), uint32(op >> 4 & 7)}
}

// FuzzRowContainers decodes its input into an op stream, two bytes an op,
// over a Grouper[[][]uint32] keyed on the first two columns and a RowSet,
// and checks both against map models after every op: the groups and their
// rows (Get, GetAt, Each), and the set's rows in first-added order (Add,
// AddAt of two-column projections beside three-column rows, Has, HasAt).
func FuzzRowContainers(f *testing.F) {
	f.Add([]byte{0x80, 0, 0x80, 1, 0x82, 0, 0x82, 1, 0x81, 1, 0x84, 2, 0x83, 3})
	f.Add([]byte{0x00, 0x09, 0x10, 0x09, 0x02, 0x09, 0x03, 0x09, 0x01, 0x09, 0x04, 0x12})
	f.Fuzz(func(t *testing.T, in []byte) {
		key := []int{0, 1}
		g := NewGrouper[[][]uint32](key)
		var s RowSet
		groups := map[string][][]uint32{}
		var order []string // the set's rows, as the model, in first-added order
		inSet := map[string]bool{}
		for k := 0; k+1 < len(in); k += 2 {
			op, row := in[k], fuzzRow(in[k], in[k+1])
			gk, rk := fmt.Sprint(row[:2]), fmt.Sprint(row)
			switch op & 0xF % 5 {
			case 0:
				rows := g.At(row)
				*rows = append(*rows, row)
				groups[gk] = append(groups[gk], row)
			case 1:
				if _, ok := groups[gk]; g.Remove(row) != ok {
					t.Fatalf("op %d: Remove(%v) disagrees with the model (%v)", k/2, row, ok)
				}
				delete(groups, gk)
			case 2:
				if s.Add(row) == inSet[rk] {
					t.Fatalf("op %d: Add(%v) reports %v after %v", k/2, row, !inSet[rk], inSet[rk])
				}
				if !inSet[rk] {
					inSet[rk], order = true, append(order, rk)
				}
			case 3:
				var a *Arena
				if op&0x40 != 0 {
					a = new(Arena)
				}
				if s.AddAt(a, row, key) == inSet[gk] {
					t.Fatalf("op %d: AddAt(%v) reports %v after %v", k/2, row, !inSet[gk], inSet[gk])
				}
				if !inSet[gk] {
					inSet[gk], order = true, append(order, gk)
				}
			case 4:
				if s.Has(row) != inSet[rk] || s.HasAt(row, key) != inSet[gk] {
					t.Fatalf("op %d: Has(%v) = %v, HasAt = %v, want %v and %v", k/2, row, s.Has(row), s.HasAt(row, key), inSet[rk], inSet[gk])
				}
			}

			want, ok := groups[gk]
			got := g.Get(row)
			if ok != (got != nil) || ok && !slices.EqualFunc(*got, want, RowsEq) {
				t.Fatalf("op %d: Get(%v) = %v, want %v", k/2, row, got, want)
			}
			if at := g.GetAt([]uint32{9, row[1], row[0]}, []int{2, 1}); at != got {
				t.Fatalf("op %d: GetAt and Get disagree on %v", k/2, row)
			}
			n := 0
			g.Each(func(key []uint32, rows *[][]uint32) {
				n++
				if !slices.EqualFunc(*rows, groups[fmt.Sprint(key)], RowsEq) {
					t.Fatalf("op %d: group %v holds %v, want %v", k/2, key, *rows, groups[fmt.Sprint(key)])
				}
			})
			if n != len(groups) {
				t.Fatalf("op %d: %d groups, want %d", k/2, n, len(groups))
			}
			if len(s.Rows) != len(order) {
				t.Fatalf("op %d: the set holds %d rows, want %d", k/2, len(s.Rows), len(order))
			}
			for i, r := range s.Rows {
				if fmt.Sprint(r) != order[i] {
					t.Fatalf("op %d: row %d is %v, want %s", k/2, i, r, order[i])
				}
				if !s.Has(r) {
					t.Fatalf("op %d: Has misses row %d, %v", k/2, i, r)
				}
			}
		}
	})
}
