package instance

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/epoch"
	"repro/internal/intern"
)

// VIndex is one immutable epoch version of the per-constraint fetch
// indices: the same index function Indexed realizes, but versioned for
// epoch-based snapshot reads. A VIndex is never mutated after it is
// published — Apply returns a NEW version that shares every untouched
// group with its predecessor (the groups live in a persistent hash trie,
// epoch.Map, written under one edit token per Apply, so one batch copies
// each trie node on its touched paths once, and only the group entries it
// touches). Readers therefore probe any pinned version without locks,
// concurrently with the writer deriving the next one.
//
// Unlike Indexed, a VIndex does no fetch accounting of its own: it is a
// pure data version. Serving layers wrap it (the facade's Snapshot) and
// attribute fetched tuples per call, per snapshot and per handle exactly.
type VIndex struct {
	access *access.Schema
	dict   *intern.Dict
	cons   map[string]*vcon // immutable map: rebuilt (shallow) per Apply
}

// vcon is one constraint's index version. The struct is immutable; Apply
// clones it before swapping in a new groups root.
type vcon struct {
	c       *access.Constraint
	xpos    []int    // X attribute positions in the relation
	xypos   []int    // X ∪ Y attribute positions (sorted attr order)
	xyAttrs []string // attribute names of the stored projections
	groups  *epoch.Map[[]vgroup]
}

// vgroup is one X-value group: the distinct XY-projections with their base
// row derivation counts. Groups under one 64-bit hash form a bucket
// (collision chain); both the bucket slice and each group's rows/counts
// are copy-on-write — a version never mutates what a predecessor
// published.
type vgroup struct {
	x      []uint32
	rows   [][]uint32
	counts []int
}

// BuildVIndex constructs the initial epoch version of the fetch indices
// over db's current contents, one per access constraint.
func BuildVIndex(db *Database, a *access.Schema) (*VIndex, error) {
	vx := &VIndex{
		access: a,
		dict:   db.Dict,
		cons:   make(map[string]*vcon, len(a.Constraints)),
	}
	for _, c := range a.Constraints {
		t := db.Table(c.Rel)
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
		vc := &vcon{c: c, xpos: xpos, xypos: xypos, xyAttrs: xy, groups: epoch.NewMap[[]vgroup]()}
		// Bulk build: mutate freshly allocated buckets in place (nothing is
		// published yet), going through the trie only per distinct hash.
		staged := map[uint64][]vgroup{}
		for _, r := range t.IDRows() {
			h := intern.HashAt(r, xpos)
			staged[h] = addToBucket(staged[h], r, vc)
		}
		ed := new(epoch.Edit)
		for h, b := range staged {
			vc.groups = vc.groups.SetIn(ed, h, b)
		}
		vx.cons[c.Key()] = vc
	}
	return vx, nil
}

// addToBucket registers one base row into a PRIVATE (unpublished) bucket,
// mutating it in place. Only build-time and already-cloned buckets may be
// passed here.
func addToBucket(b []vgroup, r []uint32, vc *vcon) []vgroup {
	for i := range b {
		if projEq(b[i].x, r, vc.xpos) {
			g := &b[i]
			for k, p := range g.rows {
				if projEq(p, r, vc.xypos) {
					g.counts[k]++
					return b
				}
			}
			g.rows = append(g.rows, intern.Project(r, vc.xypos))
			g.counts = append(g.counts, 1)
			return b
		}
	}
	return append(b, vgroup{
		x:      intern.Project(r, vc.xpos),
		rows:   [][]uint32{intern.Project(r, vc.xypos)},
		counts: []int{1},
	})
}

// Apply folds a physically applied batch (deletes, then inserts — the
// database's application order) into a NEW index version and returns it.
// The receiver is left exactly as it was: snapshots pinned to it keep
// serving the pre-batch state. Per-op cost is bounded by the constraints'
// N plus the trie depth — independent of |D| — and the buckets are
// installed under one edit token, so a trie node the batch touches is
// copied once per batch, however many of its buckets the batch writes.
func (vx *VIndex) Apply(a *Applied) (*VIndex, error) {
	out := &VIndex{access: vx.access, dict: vx.dict, cons: make(map[string]*vcon, len(vx.cons))}
	for k, vc := range vx.cons {
		out.cons[k] = vc
	}
	byRel := make(map[string][]*vcon)
	for _, vc := range vx.cons {
		byRel[vc.c.Rel] = append(byRel[vc.c.Rel], vc)
	}
	// cloned tracks per-constraint buckets already privatized during THIS
	// Apply, so consecutive ops on one group pay the copy once.
	cloned := make(map[*vcon]map[uint64][]vgroup)
	bucketFor := func(vc *vcon, h uint64) []vgroup {
		m := cloned[vc]
		if m == nil {
			m = make(map[uint64][]vgroup)
			cloned[vc] = m
		}
		if b, ok := m[h]; ok {
			return b
		}
		shared, _ := vc.groups.Get(h)
		b := make([]vgroup, len(shared))
		for i, g := range shared {
			b[i] = vgroup{
				x:      g.x,
				rows:   append([][]uint32(nil), g.rows...),
				counts: append([]int(nil), g.counts...),
			}
		}
		m[h] = b
		return b
	}
	store := func(vc *vcon, h uint64, b []vgroup) {
		cloned[vc][h] = b
	}

	for _, op := range a.Deleted {
		for _, vc := range byRel[op.Rel] {
			h := intern.HashAt(op.IDs, vc.xpos)
			b, err := removeFromBucket(bucketFor(vc, h), op.IDs, vc)
			if err != nil {
				return nil, err
			}
			store(vc, h, b)
		}
	}
	for _, op := range a.Inserted {
		for _, vc := range byRel[op.Rel] {
			h := intern.HashAt(op.IDs, vc.xpos)
			store(vc, h, addToBucket(bucketFor(vc, h), op.IDs, vc))
		}
	}

	// Install the privatized buckets into the next trie versions. The
	// token lives only for this loop: once Apply returns, nothing can
	// write the nodes it owns, and the new version is as immutable as
	// its predecessors.
	ed := new(epoch.Edit)
	for vc, buckets := range cloned {
		nvc := &vcon{c: vc.c, xpos: vc.xpos, xypos: vc.xypos, xyAttrs: vc.xyAttrs, groups: vc.groups}
		for h, b := range buckets {
			if len(b) == 0 {
				nvc.groups = nvc.groups.DeleteIn(ed, h)
			} else {
				nvc.groups = nvc.groups.SetIn(ed, h, b)
			}
		}
		out.cons[vc.c.Key()] = nvc
	}
	return out, nil
}

// removeFromBucket drops one base row's derivation from a privatized
// bucket, compacting empty groups, and returns the (possibly shrunk)
// bucket.
func removeFromBucket(b []vgroup, r []uint32, vc *vcon) ([]vgroup, error) {
	for i := range b {
		if !projEq(b[i].x, r, vc.xpos) {
			continue
		}
		g := &b[i]
		for k, p := range g.rows {
			if !projEq(p, r, vc.xypos) {
				continue
			}
			g.counts[k]--
			if g.counts[k] == 0 {
				last := len(g.rows) - 1
				g.rows[k] = g.rows[last]
				g.counts[k] = g.counts[last]
				g.rows = g.rows[:last]
				g.counts = g.counts[:last]
				if last == 0 {
					b[i] = b[len(b)-1]
					b = b[:len(b)-1]
				}
			}
			return b, nil
		}
		break
	}
	return nil, fmt.Errorf("instance: versioned index %s out of sync: deleted row not indexed", vc.c)
}

// Compact returns a version identical in content whose slack buckets are
// repacked to exact capacity, plus the number of buckets repacked. Apply
// privatizes touched buckets with exact-size clones, so most of the index
// is self-compacting — the slack Compact reclaims is the append headroom
// addToBucket's grows leave behind (bucket slices and group rows/counts
// whose capacity outran their length on insert-heavy hashes).
//
// The receiver — and every older version snapshots still pin — is left
// untouched; untouched trie paths are shared with the result. This walk
// is O(index), so callers run it on a coarse cadence (see the facade's
// vindexCompactEvery), not per batch.
func (vx *VIndex) Compact() (*VIndex, int) {
	out := &VIndex{access: vx.access, dict: vx.dict, cons: make(map[string]*vcon, len(vx.cons))}
	repacked := 0
	for k, vc := range vx.cons {
		type repack struct {
			h uint64
			b []vgroup
		}
		var todo []repack
		vc.groups.Range(func(h uint64, b []vgroup) bool {
			slack := cap(b) > len(b)
			for i := range b {
				if !slack && (cap(b[i].rows) > len(b[i].rows) || cap(b[i].counts) > len(b[i].counts)) {
					slack = true
				}
			}
			if !slack {
				return true
			}
			nb := make([]vgroup, len(b))
			for i, g := range b {
				rows := make([][]uint32, len(g.rows))
				copy(rows, g.rows)
				counts := make([]int, len(g.counts))
				copy(counts, g.counts)
				nb[i] = vgroup{x: g.x, rows: rows, counts: counts}
			}
			todo = append(todo, repack{h, nb})
			return true
		})
		if len(todo) == 0 {
			out.cons[k] = vc // fully compact already: share the version
			continue
		}
		nvc := &vcon{c: vc.c, xpos: vc.xpos, xypos: vc.xypos, xyAttrs: vc.xyAttrs, groups: vc.groups}
		ed := new(epoch.Edit)
		for _, r := range todo {
			nvc.groups = nvc.groups.SetIn(ed, r.h, r.b)
		}
		out.cons[k] = nvc
		repacked += len(todo)
	}
	return out, repacked
}

// Dict returns the dictionary rows are interned against, making VIndex a
// plan.Source (an accounting-free one; serving layers wrap it).
func (vx *VIndex) Dict() *intern.Dict { return vx.dict }

// FetchAttrs returns the attribute names (ordered) of the tuples a Fetch
// over constraint c yields: the sorted union X ∪ Y.
func (vx *VIndex) FetchAttrs(c *access.Constraint) []string {
	vc, ok := vx.cons[c.Key()]
	if !ok {
		return nil
	}
	return vc.xyAttrs
}

// FetchIDs performs fetch(X = xval, R, Y) against this version: the
// distinct XY-projections of rows whose X-attributes equal xval, as of
// this epoch. The returned rows are immutable and stay valid forever (no
// later Apply invalidates them). No fetch accounting happens here.
func (vx *VIndex) FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error) {
	vc, ok := vx.cons[c.Key()]
	if !ok {
		return nil, fmt.Errorf("instance: no index for constraint %s", c)
	}
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("instance: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	b, _ := vc.groups.Get(intern.Hash(xval))
	for i := range b {
		if intern.RowsEq(b[i].x, xval) {
			return b[i].rows, nil
		}
	}
	return nil, nil
}

// Fetch is FetchIDs over string values, decoding the result — the
// convenience form mirroring Indexed.Fetch (again without accounting).
func (vx *VIndex) Fetch(c *access.Constraint, xval Tuple) ([]Tuple, error) {
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("instance: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	if _, ok := vx.cons[c.Key()]; !ok {
		return nil, fmt.Errorf("instance: no index for constraint %s", c)
	}
	key := make([]uint32, len(xval))
	for i, v := range xval {
		id, ok := vx.dict.Lookup(v)
		if !ok {
			return nil, nil // value never occurs in D: no row can match
		}
		key[i] = id
	}
	idRows, err := vx.FetchIDs(c, key)
	if err != nil {
		return nil, err
	}
	rows := make([]Tuple, len(idRows))
	for i, r := range idRows {
		rows[i] = Tuple(vx.dict.Decode(r))
	}
	return rows, nil
}
