package instance

import "repro/internal/intern"

// RelStats are per-relation table statistics over the interned rows of one
// database: row counts and per-column distinct-ID counts. They feed the
// plan cost model (package plan) with the selectivity inputs the access
// constraints alone cannot provide — how wide a fetch group actually is on
// this D, and how selective an equality over a column is. A RelStats is
// immutable once collected; copying the struct shares the underlying
// maps, which is safe because nothing mutates them after collection.
type RelStats struct {
	Rows     map[string]int   // relation -> |R|
	Distinct map[string][]int // relation -> per-attribute-position distinct count
}

// CollectStats scans every table's ID-encoded shadow once and returns the
// statistics. Cost is O(|D|); callers refresh on a churn threshold, not per
// delta (see internal/shard's statistics drift).
func CollectStats(db *Database) *RelStats {
	st := &RelStats{
		Rows:     make(map[string]int, len(db.Tables)),
		Distinct: make(map[string][]int, len(db.Tables)),
	}
	for name, t := range db.Tables {
		rows := t.IDRows()
		st.Rows[name] = len(rows)
		st.Distinct[name] = intern.DistinctCols(rows)
	}
	return st
}
