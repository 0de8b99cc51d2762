package instance

import (
	"fmt"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/intern"
)

// Indexed wraps a Database with one hash index per access constraint,
// realizing the "index function" an access constraint promises: given an
// X-value a̅, return D_{R:XY}(X = a̅) in O(N) time. Indexes store
// ID-encoded rows keyed by a 64-bit hash of the packed X-projection (with
// collision verification), so fetch probes never touch strings. It also
// accounts for every tuple fetched, which is how experiments measure |Dξ|
// — the amount of data a bounded plan reads from the underlying database.
// The counters are atomic, so concurrent workers of the parallel evaluator
// merge their accounting exactly.
//
// The indexes are maintained incrementally: Apply patches them with the
// outcome of a Database.ApplyDelta batch, so a long-running process never
// rebuilds them as D churns. Each distinct XY-projection carries a
// reference count of the base rows deriving it, which makes deletions
// exact when X ∪ Y does not cover the relation. Apply must be serialized
// against Fetch/FetchIDs by the caller.
type Indexed struct {
	DB     *Database
	Access *access.Schema

	cons  map[string]*conIndex   // constraint key -> index
	byRel map[string][]*conIndex // relation name -> its constraints' indexes

	fetchedTuples atomic.Int64 // running count of tuples returned by Fetch
	fetchCalls    atomic.Int64 // running count of Fetch invocations
}

// conIndex is the index of one constraint: X-value groups of distinct
// XY-projections with per-projection reference counts.
type conIndex struct {
	c       *access.Constraint
	xpos    []int    // X attribute positions in the relation
	xypos   []int    // X ∪ Y attribute positions (sorted attr order)
	xyAttrs []string // attribute names of the stored projections
	groups  map[uint64][]ixEntry
}

type ixEntry struct {
	x      []uint32
	rows   [][]uint32 // distinct XY-projections
	counts []int      // rows[i] is derived by counts[i] base rows
}

// BuildIndexes constructs the index structures for every constraint in the
// access schema. It does not verify the cardinality bounds; use
// db.SatisfiesAll for that (experiments check it separately so that index
// construction stays O(|D|)).
func BuildIndexes(db *Database, a *access.Schema) (*Indexed, error) {
	ix := &Indexed{
		DB:     db,
		Access: a,
		cons:   make(map[string]*conIndex, len(a.Constraints)),
		byRel:  make(map[string][]*conIndex),
	}
	for _, c := range a.Constraints {
		ci, err := ix.buildOne(c)
		if err != nil {
			return nil, err
		}
		ix.cons[c.Key()] = ci
		ix.byRel[c.Rel] = append(ix.byRel[c.Rel], ci)
	}
	return ix, nil
}

func (ix *Indexed) buildOne(c *access.Constraint) (*conIndex, error) {
	t := ix.DB.Table(c.Rel)
	if t == nil {
		return nil, fmt.Errorf("instance: no relation %s for constraint %s", c.Rel, c)
	}
	xpos, err := t.Rel.Positions(c.X)
	if err != nil {
		return nil, err
	}
	xy := c.XY()
	xypos, err := t.Rel.Positions(xy)
	if err != nil {
		return nil, err
	}
	ci := &conIndex{c: c, xpos: xpos, xypos: xypos, xyAttrs: xy, groups: make(map[uint64][]ixEntry)}
	for _, r := range t.IDRows() {
		ci.add(r)
	}
	return ci, nil
}

// add registers one base row: its XY-projection enters (or bumps the count
// of) its X-group. The within-group scan is bounded by the constraint's N
// on conforming instances.
func (ci *conIndex) add(r []uint32) {
	h := intern.HashAt(r, ci.xpos)
	es := ci.groups[h]
	e := (*ixEntry)(nil)
	for i := range es {
		if projEq(es[i].x, r, ci.xpos) {
			e = &es[i]
			break
		}
	}
	if e == nil {
		ci.groups[h] = append(es, ixEntry{x: intern.Project(r, ci.xpos)})
		e = &ci.groups[h][len(es)]
	}
	for i, p := range e.rows {
		if projEq(p, r, ci.xypos) {
			e.counts[i]++
			return
		}
	}
	e.rows = append(e.rows, intern.Project(r, ci.xypos))
	e.counts = append(e.counts, 1)
}

// remove drops one base row's derivation; the XY-projection leaves the
// group when its last deriving row goes.
func (ci *conIndex) remove(r []uint32) error {
	h := intern.HashAt(r, ci.xpos)
	es := ci.groups[h]
	for i := range es {
		if !projEq(es[i].x, r, ci.xpos) {
			continue
		}
		e := &es[i]
		for k, p := range e.rows {
			if !projEq(p, r, ci.xypos) {
				continue
			}
			e.counts[k]--
			if e.counts[k] == 0 {
				last := len(e.rows) - 1
				e.rows[k] = e.rows[last]
				e.counts[k] = e.counts[last]
				e.rows[last] = nil
				e.rows = e.rows[:last]
				e.counts = e.counts[:last]
				if last == 0 {
					es[i] = es[len(es)-1]
					es[len(es)-1] = ixEntry{}
					ci.groups[h] = es[:len(es)-1]
					if len(ci.groups[h]) == 0 {
						delete(ci.groups, h)
					}
				}
			}
			return nil
		}
		break
	}
	return fmt.Errorf("instance: index %s out of sync: deleted row not indexed", ci.c)
}

// projEq reports whether proj equals the projection of row at pos, without
// allocating.
func projEq(proj, row []uint32, pos []int) bool {
	if len(proj) != len(pos) {
		return false
	}
	for i, p := range pos {
		if proj[i] != row[p] {
			return false
		}
	}
	return true
}

// Apply patches every constraint index with the outcome of a
// Database.ApplyDelta batch, in the same order the database applied it
// (deletes, then inserts). Per-op cost is bounded by the constraints' N on
// conforming instances — independent of |D|. Callers must serialize Apply
// against concurrent fetches.
func (ix *Indexed) Apply(a *Applied) error {
	for _, op := range a.Deleted {
		for _, ci := range ix.byRel[op.Rel] {
			if err := ci.remove(op.IDs); err != nil {
				return err
			}
		}
	}
	for _, op := range a.Inserted {
		for _, ci := range ix.byRel[op.Rel] {
			ci.add(op.IDs)
		}
	}
	return nil
}

// Dict returns the database dictionary rows are interned against, making
// Indexed a plan.Source.
func (ix *Indexed) Dict() *intern.Dict { return ix.DB.Dict }

// FetchAttrs returns the attribute names (ordered) of the tuples a Fetch
// over constraint c yields: the sorted union X ∪ Y.
func (ix *Indexed) FetchAttrs(c *access.Constraint) []string {
	ci, ok := ix.cons[c.Key()]
	if !ok {
		return nil
	}
	return ci.xyAttrs
}

// Fetch performs fetch(X = xval, R, Y) via the index of constraint c:
// it returns the distinct XY-projections of tuples whose X-attributes equal
// xval. xval must be ordered like c.X (sorted attribute order). Every
// returned tuple is counted against the fetch budget.
func (ix *Indexed) Fetch(c *access.Constraint, xval Tuple) ([]Tuple, error) {
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("instance: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	if _, ok := ix.cons[c.Key()]; !ok {
		return nil, fmt.Errorf("instance: no index for constraint %s", c)
	}
	key := make([]uint32, len(xval))
	for i, v := range xval {
		id, ok := ix.DB.Dict.Lookup(v)
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
		rows[i] = Tuple(ix.DB.Dict.Decode(r))
	}
	return rows, nil
}

// FetchIDs is Fetch over ID-encoded values: the interned hot path used by
// plan execution. The returned rows must not be mutated, and are
// invalidated by the next Apply.
func (ix *Indexed) FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error) {
	ci, ok := ix.cons[c.Key()]
	if !ok {
		return nil, fmt.Errorf("instance: no index for constraint %s", c)
	}
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("instance: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	ix.fetchCalls.Add(1)
	for _, e := range ci.groups[intern.Hash(xval)] {
		if intern.RowsEq(e.x, xval) {
			ix.fetchedTuples.Add(int64(len(e.rows)))
			return e.rows, nil
		}
	}
	return nil, nil
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
