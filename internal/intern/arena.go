package intern

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// slabLen is the length of one pooled slab: 4 KiB of IDs.
const slabLen = 1024

// Bounds on the row lists an arena keeps between uses: larger lists, or
// more of them, go to the garbage collector.
const (
	maxSpareRows  = 1 << 12
	maxSpareLists = 64
)

var slabs = sync.Pool{New: func() any { s := make([]uint32, slabLen); return &s }}

// Arena is the scratch memory of one query execution: it carves ID rows
// out of pooled slabs and hands out row lists, so the rows and lists an
// execution builds cost no allocation once the pools are warm. Rows and
// lists must not be used after Reset, which gives the slabs back to their
// pool and clears the lists, keeping them for a later execution. The zero
// Arena is empty and ready. Not safe for concurrent use.
type Arena struct {
	free  []uint32     // the unused tail of the current slab
	held  []*[]uint32  // slabs taken from the pool
	lists [][][]uint32 // lists built since the last Reset, in the order taken
	spare [][][]uint32 // cleared lists of earlier executions, taken from the end
}

// Row returns an n-wide row capped at n, so appending to it never
// overwrites the next row. Its contents are unspecified: callers fill it.
// A row wider than a slab, or asked of a nil arena, is allocated on its
// own.
func (a *Arena) Row(n int) []uint32 {
	if a == nil || n > len(a.free) {
		if a == nil || n > slabLen {
			return make([]uint32, n)
		}
		s := slabs.Get().(*[]uint32)
		a.held = append(a.held, s)
		a.free = *s
	}
	r := a.free[:n:n]
	a.free = a.free[n:]
	return r
}

// List returns an empty row list with room for n rows, reusing a list of
// an earlier execution when there is one; a nil arena allocates it. Hand
// the built list to Keep.
func (a *Arena) List(n int) [][]uint32 {
	if a == nil {
		return make([][]uint32, 0, n)
	}
	var l [][]uint32
	if k := len(a.spare); k > 0 {
		l, a.spare = a.spare[k-1], a.spare[:k-1]
	}
	return slices.Grow(l, n)
}

// Keep records a list built from List, to be cleared and reused after
// Reset, and returns it.
func (a *Arena) Keep(l [][]uint32) [][]uint32 {
	a.lists = append(a.lists, l)
	return l
}

// Reset empties the arena for the next execution. The kept lists are
// stacked back in reverse, so an execution of the same shape takes them
// in the order this one did and finds each already sized.
func (a *Arena) Reset() {
	for i, s := range a.held {
		slabs.Put(s)
		a.held[i] = nil
	}
	a.held, a.free = a.held[:0], nil
	for i := len(a.lists) - 1; i >= 0; i-- {
		l := a.lists[i]
		clear(l)
		if cap(l) <= maxSpareRows && len(a.spare) < maxSpareLists {
			a.spare = append(a.spare, l[:0])
		}
	}
	clear(a.lists)
	a.lists = a.lists[:0]
}

// localID returns the i-th local ID: IDs count down from the top of the ID
// space, which no dictionary reaches, so a local ID matches no interned
// value. Readers give a string the dictionary lacks a local ID instead of
// interning it (see Dict.Resolve and Dict.DecodeLocal).
func localID(i int) uint32 { return math.MaxUint32 - uint32(i) }

// RowSet is an open-addressing set of ID rows: a power-of-two table of
// row numbers, probed linearly from the Fibonacci-mixed Hash of a row, at
// most half full. The distinct rows are kept in Rows, in first-added order,
// by reference. The table doubles when an Add would pass half full; the
// zero RowSet is empty and ready to use. Not safe for concurrent use.
type RowSet struct {
	Rows  [][]uint32
	slots []uint32 // 1 + the row's index in Rows; 0 marks an empty slot
	shift uint
}

// tableBits returns the log2 of the smallest table more than twice n.
func tableBits(n int) uint { return uint(bits.Len(uint(2 * n))) }

// NewRowSet returns an empty set presized for n rows, so it never grows
// while it holds at most n, whose table and row list come from a (the
// heap when a is nil). Hand Rows to a.Keep once the set is built.
func NewRowSet(a *Arena, n int) RowSet {
	nbits := tableBits(n)
	slots := a.Row(1 << nbits)
	clear(slots)
	return RowSet{Rows: a.List(n), slots: slots, shift: 64 - nbits}
}

// grow rebuilds the table on the heap with room for one more row.
func (s *RowSet) grow() {
	nbits := tableBits(len(s.Rows) + 1)
	s.slots, s.shift = make([]uint32, 1<<nbits), 64-nbits
	for i, r := range s.Rows {
		*s.find(r, nil, false) = uint32(i + 1)
	}
}

// find returns the slot holding the row equal to the projection of row at
// pos (all of row unless proj), or the empty slot where it belongs. The
// table must not be empty.
func (s *RowSet) find(row []uint32, pos []int, proj bool) *uint32 {
	var h uint64
	if proj {
		h = HashAt(row, pos)
	} else {
		h = Hash(row)
	}
	mask := uint64(len(s.slots) - 1)
	for i := (h * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		j := &s.slots[i]
		if *j == 0 {
			return j
		}
		if r := s.Rows[*j-1]; !proj && RowsEq(r, row) || proj && projEq(r, row, pos) {
			return j
		}
	}
}

// projEq reports whether r equals the projection of row at pos.
func projEq(r, row []uint32, pos []int) bool {
	if len(r) != len(pos) {
		return false
	}
	for i, p := range pos {
		if r[i] != row[p] {
			return false
		}
	}
	return true
}

// Add inserts row by reference, reporting whether it was new.
func (s *RowSet) Add(row []uint32) bool {
	if 2*(len(s.Rows)+1) > len(s.slots) {
		s.grow()
	}
	j := s.find(row, nil, false)
	if *j != 0 {
		return false
	}
	s.Rows = append(s.Rows, row)
	*j = uint32(len(s.Rows))
	return true
}

// AddAt inserts the projection of row at pos, carved from a (the heap
// when a is nil) when it is new, reporting whether it was.
func (s *RowSet) AddAt(a *Arena, row []uint32, pos []int) bool {
	if 2*(len(s.Rows)+1) > len(s.slots) {
		s.grow()
	}
	j := s.find(row, pos, true)
	if *j != 0 {
		return false
	}
	key := a.Row(len(pos))
	for i, p := range pos {
		key[i] = row[p]
	}
	s.Rows = append(s.Rows, key)
	*j = uint32(len(s.Rows))
	return true
}

// Has reports membership of row.
func (s *RowSet) Has(row []uint32) bool {
	return len(s.slots) > 0 && *s.find(row, nil, false) != 0
}

// HasAt reports membership of the projection of row at pos, without
// building it.
func (s *RowSet) HasAt(row []uint32, pos []int) bool {
	return len(s.slots) > 0 && *s.find(row, pos, true) != 0
}
