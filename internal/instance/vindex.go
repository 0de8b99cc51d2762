package instance

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/epoch"
	"repro/internal/intern"
	"repro/internal/schema"
)

// VIndex is one immutable epoch version of the per-constraint fetch
// indices: the "index function" an access constraint promises, which,
// given an X-value a̅, returns D_{R:XY}(X = a̅) in O(N) time. It stores
// ID-encoded rows keyed by a 64-bit hash of the packed X-projection (with
// collision verification), so fetch probes never touch strings. A VIndex
// is never mutated after it is published: Apply returns a NEW version
// that shares every untouched group with its predecessor (the groups live
// in a persistent hash trie, epoch.Map, written under one edit token per
// Apply, so one batch copies each trie node on its touched paths once,
// and only the group entries it touches). Readers therefore probe any
// pinned version without locks, concurrently with the writer deriving
// the next one.
//
// A VIndex is a plan.Source: plans run over a static version directly,
// and the serving engine (internal/shard) routes over per-shard versions.
// It does no fetch accounting of its own: plan.Run counts the tuples a
// run fetches, and the facade attributes them per call, per snapshot and
// per handle.
type VIndex struct {
	dict *intern.Dict
	cons map[string]*vcon // immutable map: rebuilt (shallow) per Apply
}

// vcon is one constraint's index version. The struct is immutable; Apply
// clones it before swapping in a new groups root.
type vcon struct {
	c      *access.Constraint
	xpos   []int // X attribute positions in the relation
	xypos  []int // X ∪ Y attribute positions (sorted attr order)
	groups *epoch.Map[[]vgroup]
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

// BuildVIndex constructs the initial epoch version of the fetch indices,
// one per access constraint, over ID-encoded rows interned through d:
// rows maps a relation of s to its rows (a multiset; a missing relation
// is empty). Each row costs O(1) expected, so a group of g rows builds in
// O(g), however wide.
func BuildVIndex(s *schema.Schema, d *intern.Dict, rows map[string][][]uint32, a *access.Schema) (*VIndex, error) {
	vx := &VIndex{dict: d, cons: make(map[string]*vcon, len(a.Constraints))}
	for _, c := range a.Constraints {
		rel := s.Relation(c.Rel)
		if rel == nil {
			return nil, fmt.Errorf("instance: no relation %s for constraint %s", c.Rel, c)
		}
		xpos, err := rel.Positions(c.X)
		if err != nil {
			return nil, err
		}
		xypos, err := rel.Positions(c.XY())
		if err != nil {
			return nil, err
		}
		// Stage the buckets in place (nothing is published yet), then
		// build the trie in one pass with exact-size nodes. A row finds
		// its staged XY-projection through proj, keyed by the
		// projection's hash (XY includes X, so it names the group too):
		// proj holds 1 + the index in slots of the last projection
		// staged under a hash, and each slot links to the one before.
		type slot struct {
			h          uint64 // the group's bucket
			g, k, next int    // group in bucket, projection in group, 1 + previous slot
		}
		vc := &vcon{c: c, xpos: xpos, xypos: xypos}
		staged := map[uint64][]vgroup{}
		proj := make(map[uint64]int, len(rows[c.Rel]))
		slots := make([]slot, 0, len(rows[c.Rel]))
	rows:
		for _, r := range rows[c.Rel] {
			hxy := intern.HashAt(r, xypos)
			last := proj[hxy]
			for i := last; i != 0; i = slots[i-1].next {
				sl := slots[i-1]
				if g := &staged[sl.h][sl.g]; projEq(g.rows[sl.k], r, xypos) {
					g.counts[sl.k]++
					continue rows
				}
			}
			h := intern.HashAt(r, xpos)
			b, gi := groupOf(staged[h], r, vc)
			staged[h] = b
			g := &b[gi]
			slots = append(slots, slot{h: h, g: gi, k: len(g.rows), next: last})
			proj[hxy] = len(slots)
			g.rows = append(g.rows, intern.Project(r, xypos))
			g.counts = append(g.counts, 1)
		}
		entries := make([]epoch.Entry[[]vgroup], 0, len(staged))
		for h, b := range staged {
			entries = append(entries, epoch.Entry[[]vgroup]{Key: h, Val: b})
		}
		vc.groups = epoch.Build(entries)
		vx.cons[c.Key()] = vc
	}
	return vx, nil
}

// groupOf returns b and the index in it of r's X-value group, appending
// an empty group when b has none.
func groupOf(b []vgroup, r []uint32, vc *vcon) ([]vgroup, int) {
	for i := range b {
		if projEq(b[i].x, r, vc.xpos) {
			return b, i
		}
	}
	return append(b, vgroup{x: intern.Project(r, vc.xpos)}), len(b)
}

// addToBucket registers one base row into a PRIVATE (unpublished) bucket,
// mutating it in place. Only already-cloned buckets may be passed here.
// It scans the row's group, which holds at most N projections on an
// instance that satisfies the constraint.
func addToBucket(b []vgroup, r []uint32, vc *vcon) []vgroup {
	b, i := groupOf(b, r, vc)
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

// Apply folds a physically applied batch (deletes, then inserts — the
// database's application order) into a NEW index version and returns it.
// The receiver is left exactly as it was: snapshots pinned to it keep
// serving the pre-batch state. Per-op cost is bounded by the constraints'
// N plus the trie depth — independent of |D| — and the buckets are
// installed under one edit token, so a trie node the batch touches is
// copied once per batch, however many of its buckets the batch writes.
func (vx *VIndex) Apply(a *Applied) (*VIndex, error) {
	out := &VIndex{dict: vx.dict, cons: make(map[string]*vcon, len(vx.cons))}
	byRel := make(map[string][]*vcon)
	for k, vc := range vx.cons {
		out.cons[k] = vc
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

	for _, op := range a.Deleted {
		for _, vc := range byRel[op.Rel] {
			h := intern.HashAt(op.IDs, vc.xpos)
			b, err := removeFromBucket(bucketFor(vc, h), op.IDs, vc)
			if err != nil {
				return nil, err
			}
			cloned[vc][h] = b
		}
	}
	for _, op := range a.Inserted {
		for _, vc := range byRel[op.Rel] {
			h := intern.HashAt(op.IDs, vc.xpos)
			b := addToBucket(bucketFor(vc, h), op.IDs, vc) // creates cloned[vc]
			cloned[vc][h] = b
		}
	}

	// Install the privatized buckets into the next trie versions. The
	// token lives only for this loop: once Apply returns, nothing can
	// write the nodes it owns, and the new version is as immutable as
	// its predecessors.
	ed := new(epoch.Edit)
	for vc, buckets := range cloned {
		nvc := &vcon{c: vc.c, xpos: vc.xpos, xypos: vc.xypos, groups: vc.groups}
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

// Dict returns the dictionary the indexed rows are interned against.
func (vx *VIndex) Dict() *intern.Dict { return vx.dict }

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

// FetchAll appends to out the rows FetchIDs returns for each of keys, in
// turn, making the version a plan.Source.
func (vx *VIndex) FetchAll(c *access.Constraint, keys, out [][]uint32) ([][]uint32, error) {
	for _, k := range keys {
		rows, err := vx.FetchIDs(c, k)
		if err != nil {
			return out, err
		}
		out = append(out, rows...)
	}
	return out, nil
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
