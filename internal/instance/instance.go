// Package instance implements in-memory relational instances, satisfaction
// checking for access schemas, and the indices that realize the O(N) fetch
// functions of access constraints (Section 2).
//
// Values are strings at the API boundary; a tuple is a []string aligned
// with the relation's attribute order. Internally every database carries an
// intern.Dict mapping values to dense uint32 IDs, and each table keeps an
// ID-encoded shadow of its rows (built lazily, extended incrementally on
// append) that the static evaluation engines operate on. Database is the
// caller's input and the tests' oracle: the serving engine (internal/shard)
// encodes it once at Open and keeps its rows in the delta engine's
// multiplicity map instead. VIndex is the one fetch index: a persistent,
// epoch-versioned hash trie per access constraint, built from ID rows; a
// plan runs over it directly, and plan.Run counts the tuples fetched
// (|Dξ|).
package instance

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/intern"
	"repro/internal/schema"
)

// Tuple is a row of a relation instance, aligned with the relation schema's
// attribute order.
type Tuple []string

// Key renders the tuple as a canonical string for hashing/deduplication.
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(pos []int) Tuple {
	out := make(Tuple, len(pos))
	for i, p := range pos {
		out[i] = t[p]
	}
	return out
}

// Table is the instance of one relation schema. Tuples is the
// string-valued storage; treat it as append-only from the outside (mutate
// through Insert/ApplyDelta so the ID-encoded shadow stays
// consistent — plain appends are also picked up lazily by IDRows).
type Table struct {
	Rel    *schema.Relation
	Tuples []Tuple

	mu     sync.Mutex
	dict   *intern.Dict
	idRows [][]uint32

	// pos maps an ID-encoded row to the positions of its occurrences in
	// Tuples/idRows (a multiset can hold several). Built lazily on the
	// first delta delete, then maintained; posN is the watermark of rows
	// already indexed. Tuple order is NOT stable once delta deletes happen:
	// deleteOneLocked swap-deletes.
	pos  *intern.Grouper[[]int]
	posN int
}

// Insert appends a tuple after checking its arity.
func (t *Table) Insert(row ...string) error {
	if len(row) != t.Rel.Arity() {
		return fmt.Errorf("instance: %s expects %d values, got %d", t.Rel.Name, t.Rel.Arity(), len(row))
	}
	t.Tuples = append(t.Tuples, Tuple(row).Clone())
	return nil
}

// MustInsert inserts and panics on arity mismatch; convenient in generators
// and tests where the arity is static.
func (t *Table) MustInsert(row ...string) {
	if err := t.Insert(row...); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.Tuples) }

// IDRows returns the ID-encoded rows of the table, aligned with Tuples.
// The encoding is built lazily and extended incrementally when rows were
// appended since the last call. The returned slice and its rows must not
// be mutated. Safe for concurrent use as long as no concurrent writes to
// the table are in flight.
func (t *Table) IDRows() [][]uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encodeLocked()
	return t.idRows
}

func (t *Table) encodeLocked() {
	if t.dict == nil {
		t.dict = intern.NewDict()
	}
	if len(t.idRows) > len(t.Tuples) {
		t.idRows = nil // shrunk behind our back: re-encode from scratch
		t.pos = nil
		t.posN = 0
	}
	for i := len(t.idRows); i < len(t.Tuples); i++ {
		t.idRows = append(t.idRows, t.dict.Encode(t.Tuples[i]))
	}
}

// posLocked builds/extends the row-position index up to the current table
// length. Requires encodeLocked to have run.
func (t *Table) posLocked() *intern.Grouper[[]int] {
	if t.pos == nil {
		idpos := make([]int, t.Rel.Arity())
		for i := range idpos {
			idpos[i] = i
		}
		t.pos = intern.NewGrouper[[]int](idpos)
		t.posN = 0
	}
	for ; t.posN < len(t.idRows); t.posN++ {
		occ := t.pos.At(t.idRows[t.posN])
		*occ = append(*occ, t.posN)
	}
	return t.pos
}

// insertTracked appends a row and extends the ID shadow (and, when built,
// the position index) in lockstep, returning the ID-encoded row.
func (t *Table) insertTracked(row Tuple) []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encodeLocked()
	t.Tuples = append(t.Tuples, row.Clone())
	ids := t.dict.Encode(row)
	t.idRows = append(t.idRows, ids)
	if t.pos != nil {
		t.posLocked()
	}
	return ids
}

// deleteOne removes one occurrence of row (swap-delete: the last tuple
// takes its place), returning the ID-encoded row and whether an occurrence
// existed. Cost is O(1) amortized, independent of the table size.
func (t *Table) deleteOne(row Tuple) ([]uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encodeLocked()
	pos := t.posLocked()
	ids, ok := t.dict.LookupRow(row)
	if !ok {
		return nil, false
	}
	occ := pos.At(ids)
	if len(*occ) == 0 {
		pos.Remove(ids) // don't accumulate empty groups for absent rows
		return nil, false
	}
	i := (*occ)[len(*occ)-1]
	*occ = (*occ)[:len(*occ)-1]
	if len(*occ) == 0 {
		pos.Remove(ids) // last occurrence gone: memory tracks live rows
	}
	last := len(t.Tuples) - 1
	if i != last {
		moved := t.idRows[last]
		t.Tuples[i] = t.Tuples[last]
		t.idRows[i] = moved
		mocc := pos.At(moved)
		for k := range *mocc {
			if (*mocc)[k] == last {
				(*mocc)[k] = i
				break
			}
		}
	}
	t.Tuples[last] = nil
	t.idRows[last] = nil
	t.Tuples = t.Tuples[:last]
	t.idRows = t.idRows[:last]
	t.posN = last
	return ids, true
}

// Database is an instance of a database schema. Dict is the value
// dictionary shared by all its tables.
type Database struct {
	Schema *schema.Schema
	Tables map[string]*Table
	Dict   *intern.Dict
}

// NewDatabase creates an empty instance of the schema with one (empty)
// table per relation, all sharing one dictionary.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, Tables: make(map[string]*Table, len(s.Relations)), Dict: intern.NewDict()}
	for _, r := range s.Relations {
		db.Tables[r.Name] = &Table{Rel: r, dict: db.Dict}
	}
	return db
}

// IDTables returns every table's ID-encoded rows (IDRows) by relation
// name, encoding tables in schema order so new values get the same IDs on
// every run: the rows BuildVIndex and the serving engine build from. The
// rows must not be mutated.
func (db *Database) IDTables() map[string][][]uint32 {
	out := make(map[string][][]uint32, len(db.Tables))
	for _, r := range db.Schema.Relations {
		out[r.Name] = db.Tables[r.Name].IDRows()
	}
	return out
}

// Table returns the table for the named relation, or nil if absent.
func (db *Database) Table(rel string) *Table { return db.Tables[rel] }

// Insert inserts a tuple into the named relation.
func (db *Database) Insert(rel string, row ...string) error {
	t := db.Table(rel)
	if t == nil {
		return fmt.Errorf("instance: no relation %s", rel)
	}
	return t.Insert(row...)
}

// MustInsert inserts and panics on error.
func (db *Database) MustInsert(rel string, row ...string) {
	if err := db.Insert(rel, row...); err != nil {
		panic(err)
	}
}

// Op names one tuple-level mutation of a batch delta: insert or delete one
// occurrence of Row in relation Rel (which side it lands on is decided by
// the ApplyDelta argument it is passed in).
type Op struct {
	Rel string
	Row Tuple
}

// AppliedOp is one physically applied mutation, with the row ID-encoded
// against the database dictionary — the currency of the incremental
// maintenance layers (VIndex.Apply, eval's delta engine).
type AppliedOp struct {
	Rel string
	IDs []uint32
}

// Applied reports what a batch delta physically changed, in application
// order: all deletes first, then all inserts.
type Applied struct {
	Deleted  []AppliedOp
	Inserted []AppliedOp
}

// ApplyDelta applies a batch of mutations: deletes first, then inserts.
// Each delete removes ONE occurrence of its row (multiset semantics) and is
// a silent no-op when no occurrence exists; each insert appends one
// occurrence. The ID-encoded shadows (and position indexes) of the touched
// tables are maintained in lockstep, so per-op cost is independent of the
// database size. The whole batch is validated (relations exist, arities
// match) before anything is mutated.
//
// The returned Applied lists what actually changed, in the form the
// incremental index and view maintenance consume (VIndex.Apply,
// eval.DeltaEngine.Apply); the serving engine derives the same Applied
// from its own rows (eval.DeltaEngine.Resolve), so a Database fed the same
// batches is its oracle. Not safe for concurrent use with readers.
func (db *Database) ApplyDelta(inserts, deletes []Op) (*Applied, error) {
	if err := Validate(db.Schema, inserts, deletes); err != nil {
		return nil, err
	}
	a := &Applied{}
	for _, op := range deletes {
		if ids, ok := db.Table(op.Rel).deleteOne(op.Row); ok {
			a.Deleted = append(a.Deleted, AppliedOp{Rel: op.Rel, IDs: ids})
		}
	}
	for _, op := range inserts {
		ids := db.Table(op.Rel).insertTracked(op.Row)
		a.Inserted = append(a.Inserted, AppliedOp{Rel: op.Rel, IDs: ids})
	}
	return a, nil
}

// Validate checks a batch against s before anything is mutated or
// interned: every op names a relation of s and carries its arity.
func Validate(s *schema.Schema, inserts, deletes []Op) error {
	check := func(ops []Op, kind string) error {
		for _, op := range ops {
			if r := s.Relation(op.Rel); r == nil {
				return fmt.Errorf("instance: %s into unknown relation %s", kind, op.Rel)
			} else if len(op.Row) != r.Arity() {
				return fmt.Errorf("instance: %s %s expects %d values, got %d", kind, op.Rel, r.Arity(), len(op.Row))
			}
		}
		return nil
	}
	if err := check(deletes, "delete"); err != nil {
		return err
	}
	return check(inserts, "insert")
}

// Encode interns a validated batch against d in batch order, so new
// values get IDs in the order the inserts name them; deletes intern
// nothing, and one naming a never-interned value is dropped.
func Encode(d *intern.Dict, inserts, deletes []Op) (ins, del []AppliedOp) {
	del = make([]AppliedOp, 0, len(deletes))
	for _, op := range deletes {
		if ids, ok := d.LookupRow(op.Row); ok {
			del = append(del, AppliedOp{Rel: op.Rel, IDs: ids})
		}
	}
	ins = make([]AppliedOp, len(inserts))
	for i, op := range inserts {
		ins[i] = AppliedOp{Rel: op.Rel, IDs: d.Encode(op.Row)}
	}
	return ins, del
}

// Size returns |D|: the total number of tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, t := range db.Tables {
		n += len(t.Tuples)
	}
	return n
}

// Satisfies reports whether the instance satisfies the access constraint's
// cardinality part: for every X-value, at most N distinct Y-projections.
func (db *Database) Satisfies(c *access.Constraint) (bool, error) {
	t := db.Table(c.Rel)
	if t == nil {
		return false, fmt.Errorf("instance: no relation %s for constraint %s", c.Rel, c)
	}
	xpos, err := t.Rel.Positions(c.X)
	if err != nil {
		return false, err
	}
	ypos, err := t.Rel.Positions(c.Y)
	if err != nil {
		return false, err
	}
	// Group ID rows by X-value; count distinct Y-projections per group.
	groups := intern.NewGrouper[intern.Set](xpos)
	for _, r := range t.IDRows() {
		ys := groups.At(r)
		if _, fresh := ys.AddProj(r, ypos); fresh && ys.Len() > c.N {
			return false, nil
		}
	}
	return true, nil
}

// SatisfiesAll reports whether D |= A for the whole access schema.
func (db *Database) SatisfiesAll(a *access.Schema) (bool, error) {
	for _, c := range a.Constraints {
		ok, err := db.Satisfies(c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Violations returns, for diagnosis, the constraints the instance violates.
func (db *Database) Violations(a *access.Schema) []*access.Constraint {
	var out []*access.Constraint
	for _, c := range a.Constraints {
		ok, err := db.Satisfies(c)
		if err != nil || !ok {
			out = append(out, c)
		}
	}
	return out
}

// Clone deep-copies the instance (with a fresh dictionary).
func (db *Database) Clone() *Database {
	out := NewDatabase(db.Schema)
	for name, t := range db.Tables {
		nt := out.Tables[name]
		nt.Tuples = make([]Tuple, len(t.Tuples))
		for i, tu := range t.Tuples {
			nt.Tuples[i] = tu.Clone()
		}
	}
	return out
}
