// Package intern implements the interned-value execution core: a
// dictionary mapping domain strings to dense uint32 IDs, plus hash
// containers (Set, Index, FlatIndex, RowSet) keyed by packed []uint32 rows
// through a cheap FNV-style 64-bit key with collision verification, and
// the pooled Arena a query execution builds its rows in.
//
// The evaluation engines (internal/eval, internal/plan, internal/cq)
// operate on ID-encoded rows end-to-end and decode back to strings only at
// the API boundary, so hash joins, deduplication and homomorphism checks
// compare machine words instead of joining strings. The dictionary is safe
// for concurrent use; Set and Index are not (each worker builds its own),
// and a built FlatIndex is read-only, so any number of readers may share it.
package intern

import (
	"math/bits"
	"sync"
)

// Dict is a bidirectional string <-> uint32 dictionary. IDs are dense,
// starting at 0, assigned in first-intern order. The zero value is not
// usable; call NewDict.
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewDict creates an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]uint32)} }

// ID interns s and returns its ID, assigning the next dense ID when s is
// new. Safe for concurrent use.
func (d *Dict) ID(s string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	id = uint32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// LookupRow returns the IDs of row's values without interning any, and
// false when some value was never interned: no stored row can hold it.
func (d *Dict) LookupRow(row []string) ([]uint32, bool) {
	ids := make([]uint32, len(row))
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, v := range row {
		id, ok := d.ids[v]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// Resolve writes the ID of each of strs to ids without interning any,
// under one lock acquisition: a string never interned gets localID(i),
// which no stored row holds.
func (d *Dict) Resolve(strs []string, ids []uint32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, s := range strs {
		id, ok := d.ids[s]
		if !ok {
			id = localID(i)
		}
		ids[i] = id
	}
}

// Len returns the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.strs)
	d.mu.RUnlock()
	return n
}

// StringsRange returns a copy of the strings with IDs in [lo, hi), in ID
// order. IDs are dense and assignment is append-only, so the slice is a
// stable prefix delta: the write-ahead log uses it to journal dictionary
// growth per batch, and checkpoints use [0, hwm) to serialize the part of
// the dictionary the durable state may reference.
func (d *Dict) StringsRange(lo, hi int) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lo < 0 {
		lo = 0
	}
	if hi > len(d.strs) {
		hi = len(d.strs)
	}
	if lo >= hi {
		return nil
	}
	return append([]string(nil), d.strs[lo:hi]...)
}

// FromStrings rebuilds a dictionary whose IDs are exactly the positions of
// strs — the recovery inverse of StringsRange(0, n). Duplicate strings are
// rejected by returning false (a corrupt serialization: dense IDs are
// assigned to distinct strings only).
func FromStrings(strs []string) (*Dict, bool) {
	d := &Dict{ids: make(map[string]uint32, len(strs)), strs: append([]string(nil), strs...)}
	for i, s := range d.strs {
		if _, dup := d.ids[s]; dup {
			return nil, false
		}
		d.ids[s] = uint32(i)
	}
	return d, true
}

// Encode interns every value of row and returns the ID-encoded row.
func (d *Dict) Encode(row []string) []uint32 {
	out := make([]uint32, len(row))
	for i, v := range row {
		out[i] = d.ID(v)
	}
	return out
}

// Decode maps an ID-encoded row back to strings.
func (d *Dict) Decode(ids []uint32) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = d.strs[id]
	}
	return out
}

// DecodeAll decodes a row set under a single lock acquisition into one
// backing array. Each row is capped, so appending to one never overwrites
// the next.
func (d *Dict) DecodeAll(rows [][]uint32) [][]string { return d.DecodeLocal(rows, nil) }

// DecodeLocal is DecodeAll for rows that may hold local IDs: localID(i)
// decodes to local[i].
func (d *Dict) DecodeLocal(rows [][]uint32, local []string) [][]string {
	if rows == nil {
		return nil
	}
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	flat := make([]string, n)
	out := make([][]string, len(rows))
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, r := range rows {
		row := flat[:len(r):len(r)]
		flat = flat[len(r):]
		for j, id := range r {
			if int(id) < len(d.strs) {
				row[j] = d.strs[id]
			} else {
				row[j] = local[localID(0)-id]
			}
		}
		out[i] = row
	}
	return out
}

// Local is an unlocked string <-> uint32 dictionary for single-goroutine
// interning contexts (e.g. one homomorphism search). Same contract as
// Dict, without the synchronization cost.
type Local struct {
	ids  map[string]uint32
	strs []string
}

// NewLocal creates an empty unlocked dictionary.
func NewLocal() *Local { return &Local{ids: make(map[string]uint32)} }

// ID interns s and returns its ID.
func (d *Local) ID(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// Str returns the string for an interned ID.
func (d *Local) Str(id uint32) string { return d.strs[id] }

// Encode interns every value of row and returns the ID-encoded row.
func (d *Local) Encode(row []string) []uint32 {
	out := make([]uint32, len(row))
	for i, v := range row {
		out[i] = d.ID(v)
	}
	return out
}

// DecodeAll decodes a row set.
func (d *Local) DecodeAll(rows [][]uint32) [][]string {
	if rows == nil {
		return nil
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		row := make([]string, len(r))
		for j, id := range r {
			row[j] = d.strs[id]
		}
		out[i] = row
	}
	return out
}

// FNV-1a parameters; Hash consumes 32 bits per step, which keeps the
// distribution property we need (distinct short ID rows almost never
// collide) at a quarter of the multiply count of byte-wise FNV.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns the 64-bit key of an ID row.
func Hash(row []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range row {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

// HashAt hashes the projection of row at positions pos without allocating
// the projection.
func HashAt(row []uint32, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h ^= uint64(row[p])
		h *= fnvPrime64
	}
	return h
}

// RowsEq reports element-wise equality of two ID rows.
func RowsEq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Project returns the sub-row of row at positions pos.
func Project(row []uint32, pos []int) []uint32 {
	out := make([]uint32, len(pos))
	for i, p := range pos {
		out[i] = row[p]
	}
	return out
}

// Set is a set of ID rows keyed by Hash with collision verification.
// Added rows are retained by reference and must not be mutated afterwards.
// The zero value is an empty set ready to use. Not safe for concurrent
// use.
type Set struct {
	buckets map[uint64][][]uint32
	n       int
}

// NewSet creates a set with a size hint.
func NewSet(hint int) *Set {
	return &Set{buckets: make(map[uint64][][]uint32, hint)}
}

// Add inserts row, reporting whether it was newly added.
func (s *Set) Add(row []uint32) bool {
	if s.buckets == nil {
		s.buckets = make(map[uint64][][]uint32)
	}
	h := Hash(row)
	b := s.buckets[h]
	for _, r := range b {
		if RowsEq(r, row) {
			return false
		}
	}
	s.buckets[h] = append(b, row)
	s.n++
	return true
}

// Has reports membership of row.
func (s *Set) Has(row []uint32) bool {
	for _, r := range s.buckets[Hash(row)] {
		if RowsEq(r, row) {
			return true
		}
	}
	return false
}

// HasAt reports membership of the projection of row at positions pos,
// without allocating the projection.
func (s *Set) HasAt(row []uint32, pos []int) bool {
	for _, r := range s.buckets[HashAt(row, pos)] {
		if len(r) != len(pos) {
			continue
		}
		eq := true
		for i, p := range pos {
			if r[i] != row[p] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

// AddProj adds the projection of row at positions pos, allocating the
// projection only when it is new. It returns the stored projection and
// whether it was newly added.
func (s *Set) AddProj(row []uint32, pos []int) ([]uint32, bool) {
	if s.buckets == nil {
		s.buckets = make(map[uint64][][]uint32)
	}
	h := HashAt(row, pos)
	b := s.buckets[h]
outer:
	for _, r := range b {
		if len(r) != len(pos) {
			continue
		}
		for i, p := range pos {
			if r[i] != row[p] {
				continue outer
			}
		}
		return r, false
	}
	proj := Project(row, pos)
	s.buckets[h] = append(b, proj)
	s.n++
	return proj, true
}

// Len returns the number of distinct rows added.
func (s *Set) Len() int { return s.n }

// FlatIndex is a read-only multimap from the projection of rows at fixed
// key positions to those rows, laid out flat: a power-of-two bucket table
// of offsets into one uint32 permutation of the row positions, bucketed by
// the Fibonacci-mixed HashAt of the key. Building it is two passes and
// three allocations whatever the row count — cheap enough to replace a
// per-run hash join build outright — and an immutable FlatIndex may be
// probed by any number of goroutines at once. The rows are retained by
// reference and must not be mutated afterwards.
type FlatIndex struct {
	rows  [][]uint32
	pos   []int
	shift uint
	off   []uint32 // bucket b holds perm[off[b]:off[b+1]]
	perm  []uint32 // row positions grouped by bucket, in row order
}

// NewFlatIndex indexes rows by their projection at positions pos. Every
// row must be wider than the largest position.
func NewFlatIndex(rows [][]uint32, pos []int) *FlatIndex {
	nbits := uint(bits.Len(uint(len(rows)))) // 2^nbits > len(rows)
	ix := &FlatIndex{
		rows:  rows,
		pos:   pos,
		shift: 64 - nbits,
		off:   make([]uint32, 1<<nbits+1),
		perm:  make([]uint32, len(rows)),
	}
	for _, r := range rows {
		ix.off[ix.bucket(r, pos)+1]++
	}
	for b := 1; b < len(ix.off); b++ {
		ix.off[b] += ix.off[b-1]
	}
	// Counting-sort placement advances off[b] from bucket b's start to its
	// end (the start of b+1); shifting the table by one restores it.
	for i, r := range rows {
		b := ix.bucket(r, pos)
		ix.perm[ix.off[b]] = uint32(i)
		ix.off[b]++
	}
	copy(ix.off[1:], ix.off[:len(ix.off)-1])
	ix.off[0] = 0
	return ix
}

// bucket maps the key of row at pos to a bucket: the top bits of the
// HashAt key times 2^64/φ, which spreads the low-entropy FNV output of
// small dense IDs over the table.
// (An empty index has shift 64, which Go defines to yield bucket 0.)
func (ix *FlatIndex) bucket(row []uint32, pos []int) uint64 {
	return (HashAt(row, pos) * 0x9E3779B97F4A7C15) >> ix.shift
}

// Lookup appends to out the indexed rows whose key equals the projection
// of probe at positions probePos (one entry per position of the index
// key), in row order, and returns the extended slice.
func (ix *FlatIndex) Lookup(probe []uint32, probePos []int, out [][]uint32) [][]uint32 {
	b := ix.bucket(probe, probePos)
next:
	for _, i := range ix.perm[ix.off[b]:ix.off[b+1]] {
		r := ix.rows[i]
		for j, p := range ix.pos {
			if r[p] != probe[probePos[j]] {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// Grouper groups ID rows by their projection at fixed positions, with
// collision verification: each distinct projection owns one value of type
// T (zero-initialized on first sight). Not safe for concurrent use.
type Grouper[T any] struct {
	pos     []int
	buckets map[uint64][]groupEntry[T]
}

type groupEntry[T any] struct {
	key []uint32
	val *T
}

// NewGrouper creates a grouper keyed by the projection at pos.
func NewGrouper[T any](pos []int) *Grouper[T] {
	return &Grouper[T]{pos: pos, buckets: make(map[uint64][]groupEntry[T])}
}

// Get returns the group value for row's projection, or nil when the
// projection has no group. It never allocates.
func (g *Grouper[T]) Get(row []uint32) *T {
	es := g.buckets[HashAt(row, g.pos)]
outer:
	for i := range es {
		for j, p := range g.pos {
			if es[i].key[j] != row[p] {
				continue outer
			}
		}
		return es[i].val
	}
	return nil
}

// At returns the group value for row's projection, allocating a zero T
// for a projection seen for the first time.
func (g *Grouper[T]) At(row []uint32) *T {
	if v := g.Get(row); v != nil {
		return v
	}
	h := HashAt(row, g.pos)
	e := groupEntry[T]{key: Project(row, g.pos), val: new(T)}
	g.buckets[h] = append(g.buckets[h], e)
	return e.val
}

// Remove deletes the group of row's projection, reporting whether it
// existed. Long-lived incremental state (support counts, extent
// positions) uses this to keep memory proportional to live data rather
// than total churn.
func (g *Grouper[T]) Remove(row []uint32) bool {
	h := HashAt(row, g.pos)
	es := g.buckets[h]
outer:
	for i := range es {
		for j, p := range g.pos {
			if es[i].key[j] != row[p] {
				continue outer
			}
		}
		es[i] = es[len(es)-1]
		es[len(es)-1] = groupEntry[T]{}
		g.buckets[h] = es[:len(es)-1]
		if len(g.buckets[h]) == 0 {
			delete(g.buckets, h)
		}
		return true
	}
	return false
}

// Each calls f for every group, in unspecified order.
func (g *Grouper[T]) Each(f func(key []uint32, val *T)) {
	for _, es := range g.buckets {
		for _, e := range es {
			f(e.key, e.val)
		}
	}
}

// RowCache is a concurrency-safe, name-keyed cache of ID-encoded row sets
// over one dictionary — the shared machinery behind lazy view interning
// in the evaluators.
type RowCache struct {
	d  *Dict
	mu sync.Mutex
	m  map[string][][]uint32
}

// NewRowCache creates a cache encoding through d.
func NewRowCache(d *Dict) *RowCache {
	return &RowCache{d: d, m: make(map[string][][]uint32)}
}

// Encode returns the ID-encoded form of rows under the given name,
// encoding on first use and serving the cache afterwards. The rows for a
// name must not change between calls.
func (c *RowCache) Encode(name string, rows [][]string) [][]uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if enc, ok := c.m[name]; ok {
		return enc
	}
	enc := make([][]uint32, len(rows))
	for i, r := range rows {
		enc[i] = c.d.Encode(r)
	}
	c.m[name] = enc
	return enc
}
