package eval

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/schema"
)

// DeltaEngine keeps a set of UCQ views incrementally consistent with a
// database under batched insertions AND deletions — the counting-based
// (multiset) view maintenance that the paper's incremental-precomputation
// story (Armbrust et al., §1/§7) needs once workloads stop being
// append-only. For every view row it tracks the number of derivations
// (valuations of the disjunct bodies producing it); a row is in the extent
// iff its count is positive, so a deletion retracts exactly the rows that
// lost their last derivation — no full refresh.
//
// Per delta tuple t the engine enumerates only the valuations that use t,
// through join indexes (joinIndex) on exactly the column sets the
// compiled residual plans probe — the indexes only the initial full-plan
// enumeration needs are dropped once it is done. The indexes are
// themselves maintained incrementally, so per-op cost depends on the data
// touched by t's residual joins, not on |D|. Base relations are treated
// with set semantics: a per-row support count (the row's multiplicity)
// turns physical multiset churn into 0↔1 support transitions, and only
// transitions trigger view work. Extents are chunked copy-on-write (see
// extent), so a batch copies the chunks it writes and the chunk pointers
// of the views it publishes, never a whole extent.
//
// The multiplicity map is also the row store of every relation the engine
// is built over, read by a view or not: Resolve, Size and EachRow read
// it, and the shard engine keeps no other copy of the base rows.
// Each Apply reports its 0↔positive transitions, of stored rows and of
// view rows alike, so the owner can keep statistics without a scan.
//
// The engine is not safe for concurrent use; its owner (the shard
// engine's batch lock) serializes Resolve and Apply. Extents are
// published interned as immutable headers (PublishExtentIDs) for epoch
// readers.
type DeltaEngine struct {
	dict  *intern.Dict
	views map[string]*viewState
	names []string // sorted view names
	rels  map[string]*relState
	trans []Transition // the last Apply's transitions; reused across calls
}

// Transition is one row entering (Sign +1) or leaving (Sign -1) a stored
// relation's set of distinct rows or a view's extent: its multiplicity or
// derivation count moved between 0 and positive. Row is shared, immutable.
type Transition struct {
	Name string // the relation or view
	View bool
	Sign int32
	Row  []uint32
}

// relState is one stored relation: its rows with their multiplicities,
// the join indexes the compiled plans probe, and the plans its changes
// trigger.
type relState struct {
	arity   int
	rows    int                   // stored rows, copies included
	support *intern.Grouper[int]  // row -> multiplicity
	indexes map[string]*joinIndex // key: packed position set
	plans   []*deltaPlan          // plans triggered by this relation
}

// joinIndex is a join index: the stored rows of one relation grouped by
// their projection at the index's key positions. An empty position set is
// one group of every row, the degenerate case a cross-product step needs.
// The rows are shared, never mutated.
type joinIndex = intern.Grouper[[][]uint32]

// addRow indexes row under its key.
func addRow(ix *joinIndex, row []uint32) {
	g := ix.At(row)
	*g = append(*g, row)
}

// removeRow deletes one row equal to row from its group, swapping the
// group's last row into its place and dropping the group when it empties,
// and reports whether the row was indexed.
func removeRow(ix *joinIndex, row []uint32) bool {
	g := ix.Get(row)
	if g == nil {
		return false
	}
	rows := *g
	for k, r := range rows {
		if intern.RowsEq(r, row) {
			last := len(rows) - 1
			rows[k], rows[last] = rows[last], nil
			if last == 0 {
				ix.Remove(row)
			} else {
				*g = rows[:last]
			}
			return true
		}
	}
	return false
}

// viewState is one view's counted extent: every row with a positive
// derivation count, in rows, and per row its count and its index in rows.
// rows is chunked copy-on-write: chunks a published header
// (PublishExtentIDs) shares are copied on their first write after the
// publication, one chunk of extentChunkRows rows at a time, so headers
// already published never change.
type viewState struct {
	name   string
	arity  int
	counts *intern.Grouper[rowStat]
	rows   extent
}

type rowStat struct {
	count int
	pos   int
}

// deltaPlan is the compiled residual of one (disjunct, atom-occurrence)
// pair: when a tuple t enters/leaves the occurrence's relation, binding
// the occurrence to t and enumerating the steps yields exactly the
// valuations gained/lost through this occurrence.
type deltaPlan struct {
	view    *viewState
	trigger triggerSpec
	steps   []joinStep
	head    []int // the slot of each head value

	// Scratch of enumerate, reused across calls: the engine's single
	// writer enumerates one plan at a time. slots holds the valuation:
	// a slot per variable, bound as the steps go, and one per constant of
	// a step key or the head, holding its ID from compilation on.
	slots, row []uint32
}

// triggerSpec matches the delta tuple against the trigger atom.
type triggerSpec struct {
	arity  int
	consts []posConst // argument positions that must equal a constant
	dups   [][2]int   // argument position pairs that must agree
	binds  []posSlot  // argument position -> slot bindings
}

type posConst struct {
	pos int
	id  uint32
}

type posSlot struct {
	pos  int
	slot int
}

// joinStep probes one atom: the key (the slots of constants and of
// already-bound variables) is looked up in the atom's joinIndex; surviving
// rows bind the atom's new variables. exclude implements the delta
// decomposition: occurrences of the trigger relation that precede the
// trigger atom must not re-use the delta tuple itself (each gained/lost
// valuation is counted at its FIRST occurrence of t).
type joinStep struct {
	index   *joinIndex
	key     []int // slots
	binds   []posSlot
	post    [][2]int // argument position pairs (repeated new variable)
	exclude bool
}

// NewDeltaEngine builds an engine over ID-encoded rows interned through
// d: rows maps each relation of s the engine stores to its rows (a
// multiset), and every relation a view reads must be among them. It
// compiles the views' delta plans, builds the join indexes and
// multiplicities, and computes the initial counted extents — or, with
// non-nil extents, seeds them (see seed), skipping the enumeration.
// Unsatisfiable disjuncts (inconsistent equalities) are dropped; unsafe
// disjuncts (unbound head variable) and atoms over relations the engine
// does not store are errors, mirroring UCQOnDB. The rows are shared,
// never mutated.
func NewDeltaEngine(s *schema.Schema, d *intern.Dict, rows map[string][][]uint32, views map[string]*cq.UCQ, extents map[string]Extent) (*DeltaEngine, error) {
	e, inits, err := newEngine(s, d, rows, views, extents == nil)
	if err != nil {
		return nil, err
	}
	if extents != nil {
		if err := e.seed(extents); err != nil {
			return nil, err
		}
		return e, nil
	}
	// Initial extents: enumerate every derivation through the full plans.
	for _, p := range inits {
		if err := e.enumerate(p, nil, +1); err != nil {
			return nil, err
		}
	}
	e.dropUnprobedIndexes()
	return e, nil
}

// dropUnprobedIndexes unregisters every join index no delta plan probes:
// the ones only the full plans of the initial enumeration read. Left in
// place they would be maintained on every later op for nothing — and one
// keyed on a low-cardinality column (a constant's position, like a region)
// holds a fixed share of the relation per group, so its linear Remove
// would make each delete cost O(|D|). The restore path never builds them,
// so fresh and restored engines keep the same index set.
func (e *DeltaEngine) dropUnprobedIndexes() {
	probed := make(map[*joinIndex]bool)
	for _, rs := range e.rels {
		for _, p := range rs.plans {
			for _, st := range p.steps {
				probed[st.index] = true
			}
		}
	}
	for _, rs := range e.rels {
		for key, ix := range rs.indexes {
			if !probed[ix] {
				delete(rs.indexes, key)
			}
		}
	}
}

// Extent is one view's checkpointed counted extent: the extent rows in
// publication order, each paired with its derivation count. It is the unit
// the write-ahead log's checkpointer serializes and the restore path
// (NewDeltaEngine with extents) seeds from, skipping the initial full-plan
// enumeration.
type Extent struct {
	Rows   [][]uint32
	Counts []int
}

// CheckpointExtents returns every view's current counted extent. Row
// slices are shared (rows are immutable); the outer slices are fresh
// copies, so the result stays valid across later Apply calls. Call with
// the same exclusion Apply requires (the facade's write lock).
func (e *DeltaEngine) CheckpointExtents() map[string]Extent {
	out := make(map[string]Extent, len(e.views))
	for name, v := range e.views {
		ext := Extent{
			Rows:   v.rows.appendRows(nil),
			Counts: make([]int, v.rows.len()),
		}
		for i, r := range ext.Rows {
			ext.Counts[i] = v.counts.Get(r).count
		}
		out[name] = ext
	}
	return out
}

// seed installs checkpointed counted extents instead of enumerating
// them: the delta plans are compiled and the join indexes and
// multiplicities rebuilt by a linear scan of the rows (deterministic from
// the rows), but the expensive initial full-plan enumeration is skipped
// entirely — the recovery fast path. The extents MUST be the ones a
// CheckpointExtents call produced against the same rows and view set;
// mismatches that are cheap to detect (a view with no extent, arity,
// duplicate or non-positive counts) are errors.
func (e *DeltaEngine) seed(extents map[string]Extent) error {
	for _, name := range e.names {
		v := e.views[name]
		ext, ok := extents[name]
		if !ok {
			return fmt.Errorf("eval: restore: no checkpointed extent for view %s", name)
		}
		if len(ext.Rows) != len(ext.Counts) {
			return fmt.Errorf("eval: restore: view %s has %d rows but %d counts", name, len(ext.Rows), len(ext.Counts))
		}
		for i, r := range ext.Rows {
			if len(r) != v.arity {
				return fmt.Errorf("eval: restore: view %s row has arity %d, want %d", name, len(r), v.arity)
			}
			if ext.Counts[i] <= 0 {
				return fmt.Errorf("eval: restore: view %s row with non-positive derivation count %d", name, ext.Counts[i])
			}
			row := append([]uint32(nil), r...)
			v.rows.push(row)
			st := v.counts.At(row)
			if st.count != 0 {
				return fmt.Errorf("eval: restore: view %s extent repeats a row", name)
			}
			st.count = ext.Counts[i]
			st.pos = i
		}
	}
	return nil
}

// newEngine stores rows' relations, compiles the views over them and
// builds the join indexes and multiplicities from the rows. With
// withInits it also compiles one full plan per disjunct (for
// NewDeltaEngine's initial enumeration); seeding skips them —
// their indexes and enumeration are exactly the work a checkpoint avoids.
func newEngine(s *schema.Schema, d *intern.Dict, rows map[string][][]uint32, views map[string]*cq.UCQ, withInits bool) (*DeltaEngine, []*deltaPlan, error) {
	e := &DeltaEngine{
		dict:  d,
		views: make(map[string]*viewState, len(views)),
		rels:  make(map[string]*relState, len(rows)),
	}
	for name := range rows {
		r := s.Relation(name)
		if r == nil {
			return nil, nil, fmt.Errorf("eval: no relation %s in the schema", name)
		}
		e.rels[name] = &relState{
			arity:   r.Arity(),
			support: intern.NewGrouper[int](allPos(r.Arity())),
			indexes: make(map[string]*joinIndex),
		}
	}
	for name := range views {
		e.names = append(e.names, name)
	}
	sort.Strings(e.names)

	// Compile one delta plan per (disjunct, atom occurrence); compilation
	// registers the join indexes the steps probe.
	var inits []*deltaPlan
	for _, name := range e.names {
		def := views[name]
		v := &viewState{name: name, arity: def.Arity()}
		v.counts = intern.NewGrouper[rowStat](allPos(v.arity))
		e.views[name] = v
		for _, d := range def.Disjuncts {
			n, err := d.Normalize()
			if err != nil {
				continue // unsatisfiable: contributes nothing, ever
			}
			if withInits {
				full, err := e.compile(v, n, -1)
				if err != nil {
					return nil, nil, fmt.Errorf("eval: view %s: %w", name, err)
				}
				inits = append(inits, full)
			}
			for i := range n.Atoms {
				p, err := e.compile(v, n, i)
				if err != nil {
					return nil, nil, fmt.Errorf("eval: view %s: %w", name, err)
				}
				e.rels[n.Atoms[i].Rel].plans = append(e.rels[n.Atoms[i].Rel].plans, p)
			}
		}
	}

	// Populate multiplicities and join indexes from the rows.
	for rel, rs := range e.rels {
		rs.rows = len(rows[rel])
		for _, r := range rows[rel] {
			cnt := rs.support.At(r)
			*cnt++
			if *cnt == 1 {
				for _, ix := range rs.indexes {
					addRow(ix, r)
				}
			}
		}
	}
	return e, inits, nil
}

// relFor returns the state of a stored relation, erroring on names the
// engine does not store.
func (e *DeltaEngine) relFor(rel string) (*relState, error) {
	if rs, ok := e.rels[rel]; ok {
		return rs, nil
	}
	return nil, fmt.Errorf("unknown relation %s", rel)
}

// allPos returns the positions 0..n-1: a whole-row grouping key.
func allPos(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// indexOn returns (creating and registering on first use) the join index
// of rel keyed by the argument positions pos.
func (e *DeltaEngine) indexOn(rel string, pos []int) (*joinIndex, error) {
	rs, err := e.relFor(rel)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprint(pos)
	if ix, ok := rs.indexes[key]; ok {
		return ix, nil
	}
	ix := intern.NewGrouper[[][]uint32](append([]int(nil), pos...))
	rs.indexes[key] = ix
	return ix, nil
}

// compile builds the delta plan of disjunct n triggered by atom occurrence
// trig (trig == -1 compiles the full plan over all atoms, used once to
// seed the initial counts). Steps are ordered greedily to maximize bound
// argument positions, mirroring orderAtoms.
func (e *DeltaEngine) compile(v *viewState, n *cq.CQ, trig int) (*deltaPlan, error) {
	p := &deltaPlan{view: v}
	slotOf := map[string]int{}
	slot := func(name string) (int, bool) {
		s, ok := slotOf[name]
		return s, ok
	}
	newSlot := func(name string) int {
		slotOf[name] = len(p.slots)
		p.slots = append(p.slots, 0)
		return len(p.slots) - 1
	}
	constSlot := func(val string) int {
		p.slots = append(p.slots, e.dict.ID(val))
		return len(p.slots) - 1
	}

	trigRel := ""
	if trig >= 0 {
		a := n.Atoms[trig]
		trigRel = a.Rel
		rs, err := e.relFor(a.Rel)
		if err != nil {
			return nil, err
		}
		if len(a.Args) != rs.arity {
			return nil, fmt.Errorf("atom %s has %d arguments, relation has %d", a, len(a.Args), rs.arity)
		}
		p.trigger.arity = rs.arity
		seen := map[string]int{}
		for i, t := range a.Args {
			if t.Const {
				p.trigger.consts = append(p.trigger.consts, posConst{pos: i, id: e.dict.ID(t.Val)})
				continue
			}
			if first, dup := seen[t.Val]; dup {
				p.trigger.dups = append(p.trigger.dups, [2]int{first, i})
				continue
			}
			seen[t.Val] = i
			p.trigger.binds = append(p.trigger.binds, posSlot{pos: i, slot: newSlot(t.Val)})
		}
	}

	// Remaining atoms, greedily ordered: most bound argument positions
	// first, then fewer new variables.
	var remaining []int
	for i := range n.Atoms {
		if i != trig {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		best, bestScore := -1, -1<<30
		for ri, ai := range remaining {
			score := 0
			for _, t := range n.Atoms[ai].Args {
				if t.Const {
					score += 2
				} else if _, ok := slot(t.Val); ok {
					score += 2
				} else {
					score--
				}
			}
			if score > bestScore {
				best, bestScore = ri, score
			}
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		a := n.Atoms[ai]
		rs, err := e.relFor(a.Rel)
		if err != nil {
			return nil, err
		}
		if len(a.Args) != rs.arity {
			return nil, fmt.Errorf("atom %s has %d arguments, relation has %d", a, len(a.Args), rs.arity)
		}
		st := joinStep{exclude: trig >= 0 && a.Rel == trigRel && ai < trig}
		var keyPos []int
		seen := map[string]int{}
		for i, t := range a.Args {
			if t.Const {
				keyPos = append(keyPos, i)
				st.key = append(st.key, constSlot(t.Val))
				continue
			}
			// A repeat of a variable FIRST bound by this very atom cannot
			// go into the lookup key (its slot is only filled by this
			// step's own binds); it becomes an intra-row equality check.
			if first, dup := seen[t.Val]; dup {
				st.post = append(st.post, [2]int{first, i})
				continue
			}
			if s, bound := slot(t.Val); bound {
				keyPos = append(keyPos, i)
				st.key = append(st.key, s)
				continue
			}
			seen[t.Val] = i
			st.binds = append(st.binds, posSlot{pos: i, slot: newSlot(t.Val)})
		}
		st.index, err = e.indexOn(a.Rel, keyPos)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, st)
	}

	for _, t := range n.Head {
		if t.Const {
			p.head = append(p.head, constSlot(t.Val))
			continue
		}
		s, ok := slot(t.Val)
		if !ok {
			return nil, fmt.Errorf("unsafe query, unbound head variable %s", t.Val)
		}
		p.head = append(p.head, s)
	}
	p.row = make([]uint32, len(p.head))
	return p, nil
}

// enumerate walks a plan's steps for delta tuple t (nil for the full
// plan), applying sign to the view count of every valuation's head row.
func (e *DeltaEngine) enumerate(p *deltaPlan, t []uint32, sign int) error {
	if t != nil {
		for _, c := range p.trigger.consts {
			if t[c.pos] != c.id {
				return nil
			}
		}
		for _, d := range p.trigger.dups {
			if t[d[0]] != t[d[1]] {
				return nil
			}
		}
		for _, b := range p.trigger.binds {
			p.slots[b.slot] = t[b.pos]
		}
	}
	return e.extend(p, t, sign, 0)
}

// extend binds the valuation in p.slots through steps i, i+1, … and
// counts the head row of each complete one.
func (e *DeltaEngine) extend(p *deltaPlan, t []uint32, sign, i int) error {
	if i == len(p.steps) {
		for j, s := range p.head {
			p.row[j] = p.slots[s]
		}
		return e.bump(p.view, p.row, sign, t != nil)
	}
	st := &p.steps[i]
	g := st.index.GetAt(p.slots, st.key)
	if g == nil {
		return nil
	}
rows:
	for _, r := range *g {
		if st.exclude && intern.RowsEq(r, t) {
			continue
		}
		for _, d := range st.post {
			if r[d[0]] != r[d[1]] {
				continue rows
			}
		}
		for _, b := range st.binds {
			p.slots[b.slot] = r[b.pos]
		}
		if err := e.extend(p, t, sign, i+1); err != nil {
			return err
		}
	}
	return nil
}

// bump applies a derivation-count change to one view row, patching the
// extent on 0↔positive transitions and, with record (a delta tuple's
// enumeration, not the initial one), reporting them.
func (e *DeltaEngine) bump(v *viewState, row []uint32, sign int, record bool) error {
	st := v.counts.At(row)
	old := st.count
	st.count += sign
	tr := Transition{Name: v.name, View: true}
	switch {
	case st.count < 0:
		return fmt.Errorf("eval: view %s: negative derivation count for a row — delta out of sync with the database", v.name)
	case old == 0 && st.count > 0:
		st.pos = v.rows.len()
		v.rows.push(append([]uint32(nil), row...))
		tr.Sign, tr.Row = +1, v.rows.at(st.pos)
	case old > 0 && st.count == 0:
		tr.Sign, tr.Row = -1, v.rows.at(st.pos)
		// Swap-remove: the last row fills the hole. Only the chunks
		// written are copied, and only when a published header shares
		// them; the rows (the []uint32 elements) are immutable and stay
		// shared.
		if moved := v.rows.swapRemove(st.pos); moved != nil {
			v.counts.Get(moved).pos = st.pos
		}
		// Drop the spent entry: a long-running server's memory must track
		// the live extent, not every row ever derived.
		v.counts.Remove(row)
	}
	if record && tr.Sign != 0 {
		e.trans = append(e.trans, tr)
	}
	return nil
}

// Resolve turns a validated ID batch (stored relations, matching
// arities) into the physical changes it makes to the stored rows, for
// VIndex.Apply and Apply, without applying them: deletes first, each
// removing one copy of a stored row — a no-op when the batch's earlier
// deletes claimed every copy, or the row is not stored — then inserts,
// each adding one. The ops' rows are shared, not copied.
func (e *DeltaEngine) Resolve(inserts, deletes []instance.AppliedOp) *instance.Applied {
	a := &instance.Applied{Inserted: inserts}
	claimed := make(map[*int]int) // stored row's multiplicity -> copies claimed
	for _, op := range deletes {
		if n := e.rels[op.Rel].support.Get(op.IDs); n != nil && claimed[n] < *n {
			claimed[n]++
			a.Deleted = append(a.Deleted, op)
		}
	}
	return a
}

// Size returns the number of stored rows across relations, copies
// included.
func (e *DeltaEngine) Size() int {
	n := 0
	for _, rs := range e.rels {
		n += rs.rows
	}
	return n
}

// EachRow calls fn with every distinct row of a stored relation and its
// number of copies, in unspecified order (never for a relation the engine
// does not store). The rows are shared; treat them as read-only.
func (e *DeltaEngine) EachRow(rel string, fn func(row []uint32, copies int)) {
	if rs, ok := e.rels[rel]; ok {
		rs.support.Each(func(row []uint32, n *int) { fn(row, *n) })
	}
}

// Apply folds a physically applied batch delta (Resolve's result) into
// the multiplicities, counted extents and join indexes, in application
// order (deletes, then inserts). It returns the batch's transitions in
// the order they happened, so a view's extent changed iff it has one; the
// slice is reused by the next Apply, so read it before then.
func (e *DeltaEngine) Apply(a *instance.Applied) ([]Transition, error) {
	clear(e.trans) // drop the last batch's row references
	e.trans = e.trans[:0]
	for _, op := range a.Deleted {
		rs, ok := e.rels[op.Rel]
		if !ok {
			continue // relation not stored: no view reads it
		}
		cnt := rs.support.Get(op.IDs)
		if cnt == nil {
			return nil, fmt.Errorf("eval: delta engine out of sync: delete of unsupported row in %s", op.Rel)
		}
		*cnt--
		rs.rows--
		if *cnt > 0 {
			continue // another physical copy remains: no set-level change
		}
		// Enumerate lost valuations while the row is still indexed, then
		// retract it from the join state (dropping the spent support
		// entry, so memory tracks live rows, not churn volume).
		for _, p := range rs.plans {
			if err := e.enumerate(p, op.IDs, -1); err != nil {
				return nil, err
			}
		}
		for _, ix := range rs.indexes {
			if !removeRow(ix, op.IDs) {
				// Same class of misuse the support-count check catches:
				// fail fast rather than serve stale joins.
				return nil, fmt.Errorf("eval: delta engine out of sync: retracted row missing from a join index of %s", op.Rel)
			}
		}
		rs.support.Remove(op.IDs)
		e.trans = append(e.trans, Transition{Name: op.Rel, Sign: -1, Row: op.IDs})
	}
	for _, op := range a.Inserted {
		rs, ok := e.rels[op.Rel]
		if !ok {
			continue // relation not stored: no view reads it
		}
		cnt := rs.support.At(op.IDs)
		*cnt++
		rs.rows++
		if *cnt > 1 {
			continue // duplicate of a supported row: no set-level change
		}
		// Index the row first, then count the gained valuations: the
		// decomposition's exclude filters keep occurrences before the
		// trigger from double-counting t.
		row := append([]uint32(nil), op.IDs...)
		e.trans = append(e.trans, Transition{Name: op.Rel, Sign: +1, Row: row})
		for _, ix := range rs.indexes {
			addRow(ix, row)
		}
		for _, p := range rs.plans {
			if err := e.enumerate(p, row, +1); err != nil {
				return nil, err
			}
		}
	}
	return e.trans, nil
}

// PublishExtentIDs returns an immutable header of the view's current
// extent (the zero header for an unknown view). Later Apply calls never
// change what it reads: publishing marks every chunk shared, and a write
// copies the chunk it touches first — so epoch-based readers may keep
// serving it without locks for as long as they hold it. It costs one
// pointer per 32 rows; flattening the header for readers (AppendRows) is
// left to the first reader. Each call publishes the CURRENT state; callers
// publish once per epoch, and only the views that changed.
func (e *DeltaEngine) PublishExtentIDs(name string) ExtentHeader {
	v, ok := e.views[name]
	if !ok {
		return ExtentHeader{}
	}
	return v.rows.freeze()
}
