package intern

// DynIndex is a multimap from a fixed projection of ID rows to the rows
// themselves, keyed by HashAt with collision verification and supporting
// removal. It is the incrementally maintained join state of the
// live-update subsystem, where it lives as long as the database it
// mirrors (rows are added when a tuple gains support and removed when it
// loses it), and the per-join build side of the reference evaluators.
//
// Rows are retained by reference and must not be mutated while indexed.
// An empty position set is allowed: every row lands in one bucket, which
// turns Get(nil) into a full scan — the degenerate case a cross-product
// join step needs. Not safe for concurrent use; the live handle serializes
// writers against readers.
type DynIndex struct {
	pos     []int
	buckets map[uint64][]indexEntry
}

type indexEntry struct {
	key  []uint32
	rows [][]uint32
}

// NewDynIndex creates an index keyed by the projection at pos.
func NewDynIndex(pos []int) *DynIndex {
	return &DynIndex{pos: pos, buckets: make(map[uint64][]indexEntry)}
}

// Pos returns the key positions the index was created with.
func (ix *DynIndex) Pos() []int { return ix.pos }

// Add indexes row under its projection at the index's key positions.
func (ix *DynIndex) Add(row []uint32) {
	h := HashAt(row, ix.pos)
	es := ix.buckets[h]
outer:
	for i := range es {
		for j, p := range ix.pos {
			if es[i].key[j] != row[p] {
				continue outer
			}
		}
		es[i].rows = append(es[i].rows, row)
		return
	}
	ix.buckets[h] = append(es, indexEntry{key: Project(row, ix.pos), rows: [][]uint32{row}})
}

// Remove deletes one row equal to row from its group, reporting whether a
// row was found. The group's row order is not preserved (swap-delete).
func (ix *DynIndex) Remove(row []uint32) bool {
	h := HashAt(row, ix.pos)
	es := ix.buckets[h]
	for i := range es {
		ok := true
		for j, p := range ix.pos {
			if es[i].key[j] != row[p] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows := es[i].rows
		for k, r := range rows {
			if RowsEq(r, row) {
				last := len(rows) - 1
				rows[k] = rows[last]
				rows[last] = nil
				es[i].rows = rows[:last]
				if len(es[i].rows) == 0 {
					es[i] = es[len(es)-1]
					es[len(es)-1] = indexEntry{}
					ix.buckets[h] = es[:len(es)-1]
					if len(ix.buckets[h]) == 0 {
						delete(ix.buckets, h)
					}
				}
				return true
			}
		}
		return false
	}
	return false
}

// Get returns the rows whose projection equals key (nil when absent). The
// returned slice is invalidated by the next Add/Remove and must not be
// mutated.
func (ix *DynIndex) Get(key []uint32) [][]uint32 {
	for _, e := range ix.buckets[Hash(key)] {
		if RowsEq(e.key, key) {
			return e.rows
		}
	}
	return nil
}

// GetAt returns the rows whose projection equals the projection of probe
// at positions probePos, without allocating it (nil when absent). The
// returned slice is invalidated by the next Add/Remove and must not be
// mutated.
func (ix *DynIndex) GetAt(probe []uint32, probePos []int) [][]uint32 {
outer:
	for _, e := range ix.buckets[HashAt(probe, probePos)] {
		for i, p := range probePos {
			if e.key[i] != probe[p] {
				continue outer
			}
		}
		return e.rows
	}
	return nil
}
