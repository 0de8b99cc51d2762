package instance

import (
	"fmt"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/intern"
)

// Indexed is a fetch-counting view of one VIndex: the static path's
// plan.Source. It realizes the same index function the serving engine
// probes, and accounts for every tuple fetched, which is how experiments
// measure |Dξ| — the amount of data a bounded plan reads from the
// underlying database. The counters are atomic, so concurrent workers of
// the parallel evaluator merge their accounting exactly.
type Indexed struct {
	vx *VIndex

	fetchedTuples atomic.Int64 // running count of tuples returned by Fetch
	fetchCalls    atomic.Int64 // running count of Fetch invocations
}

// BuildIndexes builds the fetch indices (BuildVIndex) over db's current
// contents, one per access constraint, with zeroed counters. It does not
// verify the cardinality bounds; use db.SatisfiesAll for that (experiments
// check it separately so that index construction stays O(|D|)). Later
// changes to db are not seen: build again, or serve from Open's epochs.
func BuildIndexes(db *Database, a *access.Schema) (*Indexed, error) {
	vx, err := BuildVIndex(db.Schema, db.Dict, db.IDTables(), a)
	if err != nil {
		return nil, err
	}
	return &Indexed{vx: vx}, nil
}

// Dict returns the database dictionary rows are interned against, making
// Indexed a plan.Source.
func (ix *Indexed) Dict() *intern.Dict { return ix.vx.dict }

// Fetch performs fetch(X = xval, R, Y) via the index of constraint c:
// it returns the distinct XY-projections of tuples whose X-attributes equal
// xval. xval must be ordered like c.X (sorted attribute order). Every
// returned tuple is counted against the fetch budget.
func (ix *Indexed) Fetch(c *access.Constraint, xval Tuple) ([]Tuple, error) {
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("instance: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	if _, ok := ix.vx.cons[c.Key()]; !ok {
		return nil, fmt.Errorf("instance: no index for constraint %s", c)
	}
	d := ix.vx.dict
	key := make([]uint32, len(xval))
	for i, v := range xval {
		id, ok := d.Lookup(v)
		if !ok {
			// The value never occurs in D, so no row can match; the probe
			// still counts as a fetch call.
			ix.fetchCalls.Add(1)
			return nil, nil
		}
		key[i] = id
	}
	idRows, err := ix.FetchIDs(c, key)
	if err != nil {
		return nil, err
	}
	rows := make([]Tuple, len(idRows))
	for i, r := range idRows {
		rows[i] = Tuple(d.Decode(r))
	}
	return rows, nil
}

// FetchIDs is Fetch over ID-encoded values: the interned hot path used by
// plan execution. The returned rows must not be mutated.
func (ix *Indexed) FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error) {
	rows, err := ix.vx.FetchIDs(c, xval)
	if err != nil {
		return nil, err
	}
	ix.fetchCalls.Add(1)
	ix.fetchedTuples.Add(int64(len(rows)))
	return rows, nil
}

// FetchedTuples returns the number of tuples fetched from D so far (the
// size of the bag Dξ in the paper's terms).
func (ix *Indexed) FetchedTuples() int { return int(ix.fetchedTuples.Load()) }

// FetchCalls returns the number of Fetch invocations so far.
func (ix *Indexed) FetchCalls() int { return int(ix.fetchCalls.Load()) }

// ResetCounters zeroes the fetch accounting, to measure a single plan run.
func (ix *Indexed) ResetCounters() {
	ix.fetchedTuples.Store(0)
	ix.fetchCalls.Store(0)
}
