// Package epoch provides the copy-on-write substrate for epoch-based
// snapshot reads: persistent (immutable, path-copying) data structures a
// writer can evolve in O(depth) per update while readers keep serving any
// previously published version without locks.
//
// Map is a persistent hash-array-mapped trie keyed by uint64. The live
// engines key it by the same 64-bit row hashes intern uses for its mutable
// containers, so one batch's maintenance copies only the trie paths of the
// buckets it actually touches — the "patched-structure granularity" the
// epoch design needs: per-epoch cost tracks the delta, not |D|, and all
// untouched structure is shared between consecutive epochs.
//
// A batch writes through an Edit token (SetIn, DeleteIn): a node copied
// under the token belongs to the batch and later writes under the same
// token mutate it in place, so each node is copied at most once per batch,
// not once per op — a transient in the sense of Clojure's transients over
// Bagwell's hash-array-mapped tries. Versions published before the token
// was taken share no node the token owns, so they never change.
package epoch

import "math/bits"

// fanout is the trie's branching factor: 6 bits of the key per level
// (64-way nodes, bitmap-compressed), consuming a 64-bit key in at most 11
// levels. In practice leaves sit at depth ~log64(n).
const (
	bitsPerLevel = 6
	fanout       = 1 << bitsPerLevel
	levelMask    = fanout - 1
)

// Map is one immutable version of a uint64-keyed map. The zero value is
// NOT usable; start from NewMap[V](). Set and Delete return a new version
// and never mutate the receiver, so any number of readers may use a
// version concurrently with a writer deriving the next one. SetIn and
// DeleteIn mutate only a version their own token produced (see Edit).
// Values are stored as given: a value that is itself mutated after
// insertion breaks the immutability contract (store fresh slices, as the
// COW layers do).
type Map[V any] struct {
	root *node[V]
	n    int
	edit *Edit // the token that produced this version (nil: Set/Delete)
}

// Edit is a batch-scoped write token. Take a fresh one per batch
// (new(Edit)), pass it to every SetIn/DeleteIn of the batch, publish the
// last version and drop the token: once no writer holds it, every version
// it produced is immutable like any other. A version derived under one
// token must not be read concurrently with further writes under that
// token. The byte field keeps the type non-zero-sized: Go may give every
// allocation of a zero-sized type the same address, which would make two
// tokens equal.
type Edit struct{ _ byte }

// node is one trie node: a bitmap-compressed array of slots. A slot is
// either a leaf (child == nil: key/val hold an entry) or an interior
// pointer (child != nil). A node is immutable once linked into a version,
// except under the Edit token that created it (edit != nil).
type node[V any] struct {
	bitmap uint64
	slots  []slot[V]
	edit   *Edit
}

type slot[V any] struct {
	child *node[V]
	key   uint64
	val   V
}

// NewMap returns the empty map.
func NewMap[V any]() *Map[V] { return &Map[V]{root: &node[V]{}} }

// Entry is one key/value pair given to Build.
type Entry[V any] struct {
	Key uint64
	Val V
}

// Build returns the map holding exactly entries, whose keys must be
// distinct. It builds the trie top-down by one in-place radix partition
// per level, so every node is allocated once at its exact size, where a
// run of SetIn regrows a node by one slot per insert. No Edit token owns
// the result. Build reorders entries.
func Build[V any](entries []Entry[V]) *Map[V] {
	root := &node[V]{}
	if len(entries) > 0 {
		root = build(entries, 0)
	}
	return &Map[V]{root: root, n: len(entries)}
}

// build returns the node over es at depth. It permutes es so that each
// chunk's entries are contiguous (an American flag sort step), then
// recurses into each part of two or more entries.
func build[V any](es []Entry[V], depth int) *node[V] {
	if depth*bitsPerLevel >= 64 {
		panic("epoch: Build given a duplicate key")
	}
	var start [fanout + 1]int
	for i := range es {
		start[chunk(es[i].Key, depth)+1]++
	}
	n := &node[V]{}
	for c := 0; c < fanout; c++ {
		if start[c+1] > 0 {
			n.bitmap |= 1 << c
		}
		start[c+1] += start[c]
	}
	next := start
	for c := 0; c < fanout; c++ {
		for next[c] < start[c+1] {
			d := chunk(es[next[c]].Key, depth)
			if d != c {
				es[next[c]], es[next[d]] = es[next[d]], es[next[c]]
			}
			next[d]++
		}
	}
	n.slots = make([]slot[V], 0, bits.OnesCount64(n.bitmap))
	for c := 0; c < fanout; c++ {
		part := es[start[c]:start[c+1]]
		switch len(part) {
		case 0:
		case 1:
			n.slots = append(n.slots, slot[V]{key: part[0].Key, val: part[0].Val})
		default:
			n.slots = append(n.slots, slot[V]{child: build(part, depth+1)})
		}
	}
	return n
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.n }

// chunk extracts the key's slot index at the given trie depth.
func chunk(key uint64, depth int) int {
	return int(key >> (uint(depth) * bitsPerLevel) & levelMask)
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key uint64) (V, bool) {
	n := m.root
	for depth := 0; ; depth++ {
		bit := uint64(1) << chunk(key, depth)
		if n.bitmap&bit == 0 {
			var zero V
			return zero, false
		}
		s := &n.slots[bits.OnesCount64(n.bitmap&(bit-1))]
		if s.child == nil {
			if s.key == key {
				return s.val, true
			}
			var zero V
			return zero, false
		}
		n = s.child
	}
}

// Set returns a new version with key bound to val, sharing all untouched
// structure with the receiver. O(depth) node copies.
func (m *Map[V]) Set(key uint64, val V) *Map[V] { return m.SetIn(nil, key, val) }

// SetIn is Set under the batch token ed: nodes ed already owns are
// updated in place, the others are copied once and then owned by ed.
// The receiver is returned, updated, when ed produced it. A nil ed copies
// every node on the path, like Set.
func (m *Map[V]) SetIn(ed *Edit, key uint64, val V) *Map[V] {
	root, added := setRec(ed, m.root, key, val, 0)
	n := m.n
	if added {
		n++
	}
	return m.next(ed, root, n)
}

// next returns the version holding root: the receiver itself when ed
// produced it, a fresh version otherwise.
func (m *Map[V]) next(ed *Edit, root *node[V], n int) *Map[V] {
	if ed != nil && m.edit == ed {
		m.root, m.n = root, n
		return m
	}
	return &Map[V]{root: root, n: n, edit: ed}
}

// owned returns n itself when the token ed owns it, else a copy of n
// owned by ed, with room for extra more slots.
func owned[V any](ed *Edit, n *node[V], extra int) *node[V] {
	if ed != nil && n.edit == ed {
		return n
	}
	out := &node[V]{bitmap: n.bitmap, slots: make([]slot[V], len(n.slots), len(n.slots)+extra), edit: ed}
	copy(out.slots, n.slots)
	return out
}

func setRec[V any](ed *Edit, n *node[V], key uint64, val V, depth int) (*node[V], bool) {
	bit := uint64(1) << chunk(key, depth)
	idx := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		// Free slot: insert a leaf here. An owned node that is full
		// grows by exactly one slot, not by append's doubling, so a
		// batch leaves no insert slack in the trie.
		out := owned(ed, n, 1)
		if len(out.slots) == cap(out.slots) {
			grown := make([]slot[V], len(out.slots), len(out.slots)+1)
			copy(grown, out.slots)
			out.slots = grown
		}
		out.bitmap |= bit
		out.slots = append(out.slots, slot[V]{})
		copy(out.slots[idx+1:], out.slots[idx:])
		out.slots[idx] = slot[V]{key: key, val: val}
		return out, true
	}
	s := n.slots[idx]
	var ns slot[V]
	added := false
	switch {
	case s.child != nil:
		child, a := setRec(ed, s.child, key, val, depth+1)
		ns, added = slot[V]{child: child}, a
	case s.key == key:
		ns = slot[V]{key: key, val: val}
	default:
		// Leaf collision on this chunk: push both entries one level down.
		// Distinct 64-bit keys always separate at some deeper chunk.
		ns, added = slot[V]{child: split(ed, s, key, val, depth+1)}, true
	}
	out := owned(ed, n, 0)
	out.slots[idx] = ns
	return out, added
}

// split builds the subtrie holding an existing leaf and a new entry whose
// keys collide on all chunks above depth.
func split[V any](ed *Edit, old slot[V], key uint64, val V, depth int) *node[V] {
	oc, nc := chunk(old.key, depth), chunk(key, depth)
	if oc == nc {
		return &node[V]{
			bitmap: 1 << oc,
			slots:  []slot[V]{{child: split(ed, old, key, val, depth+1)}},
			edit:   ed,
		}
	}
	n := &node[V]{bitmap: 1<<oc | 1<<nc, slots: make([]slot[V], 2), edit: ed}
	a, b := slot[V]{key: old.key, val: old.val}, slot[V]{key: key, val: val}
	if oc < nc {
		n.slots[0], n.slots[1] = a, b
	} else {
		n.slots[0], n.slots[1] = b, a
	}
	return n
}

// Delete returns a new version without key (the receiver when absent).
func (m *Map[V]) Delete(key uint64) *Map[V] { return m.DeleteIn(nil, key) }

// DeleteIn is Delete under the batch token ed (see SetIn).
func (m *Map[V]) DeleteIn(ed *Edit, key uint64) *Map[V] {
	root, removed := delRec(ed, m.root, key, 0)
	if !removed {
		return m
	}
	if root == nil {
		root = &node[V]{}
	}
	return m.next(ed, root, m.n-1)
}

// delRec returns the replacement node (nil when the subtree became empty)
// and whether the key was found. Single-leaf interior nodes are collapsed
// so lookup depth tracks the live population, not historical peaks.
func delRec[V any](ed *Edit, n *node[V], key uint64, depth int) (*node[V], bool) {
	bit := uint64(1) << chunk(key, depth)
	if n.bitmap&bit == 0 {
		return n, false
	}
	idx := bits.OnesCount64(n.bitmap & (bit - 1))
	s := n.slots[idx]
	var child *node[V]
	if s.child == nil {
		if s.key != key {
			return n, false
		}
	} else {
		var removed bool
		if child, removed = delRec(ed, s.child, key, depth+1); !removed {
			return n, false
		}
	}
	if child == nil && len(n.slots) == 1 {
		return nil, true
	}
	out := owned(ed, n, 0)
	switch {
	case child == nil:
		out.bitmap &^= bit
		copy(out.slots[idx:], out.slots[idx+1:])
		out.slots[len(out.slots)-1] = slot[V]{}
		out.slots = out.slots[:len(out.slots)-1]
	case len(child.slots) == 1 && child.slots[0].child == nil:
		out.slots[idx] = child.slots[0] // collapse a single-leaf chain
	default:
		out.slots[idx] = slot[V]{child: child}
	}
	return out, true
}

// Range calls f for every entry, in unspecified order, stopping early when
// f returns false.
func (m *Map[V]) Range(f func(key uint64, val V) bool) {
	var walk func(n *node[V]) bool
	walk = func(n *node[V]) bool {
		for i := range n.slots {
			s := &n.slots[i]
			if s.child != nil {
				if !walk(s.child) {
					return false
				}
			} else if !f(s.key, s.val) {
				return false
			}
		}
		return true
	}
	walk(m.root)
}
