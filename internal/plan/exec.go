package plan

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"strconv"
	"sync"

	"repro/internal/access"
	"repro/internal/intern"
)

// Source is what plan execution reads the underlying database through: the
// value dictionary rows are interned against, and the fetch function of the
// access constraints. Every source probes the one fetch index,
// instance.VIndex: a static version is a Source itself, and the serving
// engine (internal/shard) routes each fetch to the owning partition's
// pinned version or gathers across all of them. FetchAll appends to out,
// for each X-value of keys in turn, its distinct XY-projections, and
// returns out; on an error, out holds the rows of the keys before the
// failing one. One call serves all of a fetch operator's keys, so a
// serving source counts its probes once per call, not once per key.
// Returned rows must stay valid (and unmutated) for the duration of the
// plan run. Sources do no fetch accounting: Run counts the tuples every
// fetch returns. Concurrent runs may share a source, so FetchAll must be
// safe to call from several goroutines; one run calls it from one only.
type Source interface {
	Dict() *intern.Dict
	FetchAll(c *access.Constraint, keys, out [][]uint32) ([][]uint32, error)
}

// Materialized maps view names to their cached extents V(D), with columns
// ordered like the View node's Cols. Reading from cached views costs no
// fetch budget (Section 2: "tuples retrieved from the cached views do not
// incur any I/O").
type Materialized map[string][][]string

// PreparedViews is the ID-encoded view set a plan run reads, bound to the
// dictionary of one database: an immutable map from view names to view
// versions. Serving engines publish one per epoch, derived from the
// previous epoch's by With, so a view a batch left unchanged keeps its
// version, with its resolved rows and its join indices, across epochs.
type PreparedViews struct {
	d     *intern.Dict
	views map[string]*ViewVersion
}

// ViewVersion is one version of one view's extent: its rows and the flat
// hash indices joins look it up through, one per key positions. Each is
// built once, on first demand, and then shared read-only by every reader
// of every view set holding the version, so a bounded plan joining a large
// cached view pays O(|V|) once per version of V, not per execution.
type ViewVersion struct {
	arity   int
	once    sync.Once
	compute func() [][]uint32
	rows    [][]uint32
	indices sync.Map // posKey(key positions) -> *viewIndex
}

// viewIndex is one memoized index of a view version.
type viewIndex struct {
	once sync.Once
	ix   *intern.FlatIndex
}

// NewViewVersion returns a version of an arity-wide view whose rows
// compute returns, called at most once, on the first read. compute must
// be safe to call from any goroutine and return arity-wide rows.
func NewViewVersion(arity int, compute func() [][]uint32) *ViewVersion {
	return &ViewVersion{arity: arity, compute: compute}
}

// Rows returns the version's rows, resolving them on the first call. The
// rows are shared and immutable; treat them as read-only.
func (vv *ViewVersion) Rows() [][]uint32 {
	vv.once.Do(func() { vv.rows, vv.compute = vv.compute(), nil })
	return vv.rows
}

// index returns the version's flat index keyed by the columns at pos,
// whose posKey is key, building it on first demand.
func (vv *ViewVersion) index(key string, pos []int) *intern.FlatIndex {
	e, ok := vv.indices.Load(key)
	if !ok {
		e, _ = vv.indices.LoadOrStore(key, &viewIndex{})
	}
	vi := e.(*viewIndex)
	vi.once.Do(func() { vi.ix = intern.NewFlatIndex(vv.Rows(), slices.Clone(pos)) })
	return vi.ix
}

// posKey renders column positions as a map key.
func posKey(pos []int) string {
	var buf [32]byte
	b := buf[:0]
	for _, p := range pos {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// NewPreparedViews binds the view versions to dictionary d. The view set
// owns the map; callers must not change it afterwards.
func NewPreparedViews(d *intern.Dict, views map[string]*ViewVersion) *PreparedViews {
	return &PreparedViews{d: d, views: views}
}

// With derives the view set that serves changed's versions in place of
// pv's and shares every other version, rows and indices included, with
// pv. pv itself is unchanged.
func (pv *PreparedViews) With(changed map[string]*ViewVersion) *PreparedViews {
	views := make(map[string]*ViewVersion, len(pv.views))
	maps.Copy(views, pv.views)
	maps.Copy(views, changed)
	return NewPreparedViews(pv.d, views)
}

// View returns the named view's version.
func (pv *PreparedViews) View(name string) (*ViewVersion, bool) {
	vv, ok := pv.views[name]
	return vv, ok
}

// All iterates over the view set's names and versions.
func (pv *PreparedViews) All() iter.Seq2[string, *ViewVersion] { return maps.All(pv.views) }

// view returns v's version and rows, resolving the rows on the version's
// first read, checked against v's width. An empty extent fits any width.
func (pv *PreparedViews) view(v *View) (*ViewVersion, [][]uint32, error) {
	vv, ok := pv.views[v.Name]
	if !ok {
		return nil, nil, fmt.Errorf("plan: view %s not materialized", v.Name)
	}
	rows := vv.Rows()
	if len(rows) > 0 && vv.arity != len(v.Cols) {
		return nil, nil, fmt.Errorf("plan: view %s rows have %d columns, node expects %d", v.Name, vv.arity, len(v.Cols))
	}
	return vv, rows, nil
}

// PrepareViews interns the view extents m against dictionary d, eagerly:
// the rows are captured at call time, so later changes to m are not seen.
// A view's arity is the width of its first row.
func PrepareViews(d *intern.Dict, m Materialized) *PreparedViews {
	views := make(map[string]*ViewVersion, len(m))
	for name, ext := range m {
		enc := make([][]uint32, len(ext))
		for i, r := range ext {
			enc[i] = d.Encode(r)
		}
		arity := 0
		if len(enc) > 0 {
			arity = len(enc[0])
		}
		views[name] = NewViewVersion(arity, func() [][]uint32 { return enc })
	}
	return NewPreparedViews(d, views)
}

// Run executes the plan bottom-up over src with views prepared over the
// same dictionary (Section 2's operational semantics), returning the root
// relation with set semantics (nil when empty) and the number of tuples the
// run fetched from the underlying database (|Dξ|). fetched counts every
// tuple a Fetch node got back, also when the run fails later. A nil pv
// serves no views (View nodes error). Run compiles the plan (see Compile)
// into a pooled Program and runs it (see Exec): rows are ID-encoded
// against the source's dictionary and decoded only at the boundary, and no
// value is interned. The run executes its ops one after another on the
// caller's goroutine.
func Run(n Node, src Source, pv *PreparedViews) (rows [][]string, fetched int, err error) {
	rows, x, err := Exec(n, nil, src, pv)
	fetched = x.Fetched()
	x.Release()
	return rows, fetched, err
}

// Slot is one op's counters in one run: for a fetch op, the distinct
// keys it probed (In) and the tuples they returned (Out); for a hash
// join, its two inputs in full (In) and its output (Out); for any other
// op, the rows it read and the rows it emitted.
type Slot struct{ In, Out int }

// Execution is one run of a program: the state the run threads through
// its ops and, once Exec returns, the run's profile, one Slot per op of
// the program (see Slots). Executions are pooled: Release one once read.
type Execution struct {
	p     *Program
	own   bool // p was compiled for this run: Release releases it too
	src   Source
	views *PreparedViews
	ids   []uint32 // the IDs of p's constants in the source's dictionary
	slots []Slot
	arena intern.Arena // the run's rows and lists, reset when the run ends
}

var executions = sync.Pool{New: func() any { return new(Execution) }}

// Exec runs prog, or plan n compiled for this run when prog is nil, under
// Run's contract, and returns the answer and the run's Execution, never
// nil, also when the run fails. Concurrent calls are safe: each takes its
// own Execution, and reads the program and the source only.
func Exec(n Node, prog *Program, src Source, pv *PreparedViews) ([][]string, *Execution, error) {
	x := executions.Get().(*Execution)
	if prog == nil {
		if prog = pooled(n); prog.err != nil {
			err := prog.err
			prog.release()
			return nil, x, err
		}
		x.own = true
	}
	x.p = prog
	rows, err := x.run(src, pv)
	return rows, x, err
}

func (x *Execution) run(src Source, pv *PreparedViews) ([][]string, error) {
	p, d := x.p, src.Dict()
	if pv == nil {
		pv = NewPreparedViews(d, nil)
	} else if pv.d != d {
		return nil, fmt.Errorf("plan: prepared views belong to a different database")
	}
	a := &x.arena
	defer a.Reset()
	x.src, x.views = src, pv
	x.ids = slices.Grow(x.ids[:0], len(p.consts))[:len(p.consts)]
	d.Resolve(p.consts, x.ids)
	x.slots = slices.Grow(x.slots[:0], len(p.ops))[:len(p.ops)]
	clear(x.slots)
	rows, err := x.exec(len(p.ops) - 1)
	if err != nil {
		return nil, err
	}
	set := intern.NewRowSet(a, len(rows))
	for _, r := range rows {
		set.Add(r)
	}
	if a.Keep(set.Rows); len(set.Rows) == 0 {
		return nil, nil
	}
	return d.DecodeLocal(set.Rows, p.consts), nil
}

// Program returns the program the run ran (nil when it failed to
// compile), valid until Release.
func (x *Execution) Program() *Program { return x.p }

// Slots returns the run's per-op counters, indexed like the program's ops
// (empty when the run failed before its first op), valid until Release.
// The ops the run did not reach read zero.
func (x *Execution) Slots() []Slot { return x.slots }

// Fetched returns the tuples the run fetched: the sum of its fetch ops'
// slots. A failed run counts the tuples its fetches got before it failed.
func (x *Execution) Fetched() int {
	n := 0
	for i, s := range x.slots {
		if x.p.ops[i].kind == opFetch {
			n += s.Out
		}
	}
	return n
}

// Release gives x, and the program compiled for it, back to their pools.
func (x *Execution) Release() {
	if x.own {
		x.p.release()
	}
	x.p, x.own, x.src, x.views, x.slots = nil, false, nil, nil, x.slots[:0]
	executions.Put(x)
}

// Group reports whether op i is the first of the program's fetch ops
// through its access constraint and, if so, returns the constraint's key
// and the probe keys (In) and tuples (Out) those ops recorded in slots,
// summed: Out/In is the run's realized group width.
func (p *Program) Group(slots []Slot, i int) (key string, g Slot, ok bool) {
	if p.ops[i].kind != opFetch {
		return "", g, false
	}
	key = p.ops[i].c.Key()
	for j, s := range slots {
		if o := &p.ops[j]; o.kind == opFetch && o.c.Key() == key {
			if j < i {
				return "", g, false
			}
			g.In, g.Out = g.In+s.In, g.Out+s.Out
		}
	}
	return key, g, true
}

// Joins returns the input (In) and output (Out) rows of the program's
// hash joins recorded in slots, summed: Out/In is the run's realized join
// fan-out.
func (p *Program) Joins(slots []Slot) (g Slot) {
	for i, s := range slots {
		if p.ops[i].kind == opJoin {
			g.In, g.Out = g.In+s.In, g.Out+s.Out
		}
	}
	return g
}

// noInput is the one empty X-value a leaf fetch probes with.
var noInput = [][]uint32{{}}

// exec runs op i, records its slot and returns its rows: a bag, as only
// the root's rows are deduplicated.
func (x *Execution) exec(i int) ([][]uint32, error) {
	out, in, err := x.eval(&x.p.ops[i])
	x.slots[i] = Slot{In: in, Out: len(out)}
	return out, err
}

// eval computes op o's rows and the rows it read. A failed fetch returns
// the rows of the keys before the failing one.
func (x *Execution) eval(o *op) (out [][]uint32, in int, err error) {
	a := &x.arena
	var l, r [][]uint32
	switch o.kind {
	case opConst:
		row := a.Row(1)
		row[0] = x.ids[o.val]
		return a.Keep(append(a.List(1), row)), 0, nil
	case opView:
		_, rows, err := x.views.view(o.view)
		return rows, 0, err
	case opJoin:
		return x.join(o)
	case opFetch:
		keys := noInput
		if o.l >= 0 {
			if l, err = x.exec(o.l); err != nil {
				return nil, 0, err
			}
			set := intern.NewRowSet(a, len(l))
			for _, r := range l {
				set.AddAt(a, r, o.pos)
			}
			keys = a.Keep(set.Rows)
		}
		out, err = x.src.FetchAll(o.c, keys, a.List(len(keys)))
		return a.Keep(out), len(keys), err
	case opProject, opFilter:
		if l, err = x.exec(o.l); err != nil {
			return nil, 0, err
		}
	default:
		if l, r, err = x.both(o); err != nil {
			return nil, 0, err
		}
	}
	switch o.kind {
	case opProject:
		out = a.List(len(l))
		for _, u := range l {
			row := a.Row(len(o.pos))
			for j, p := range o.pos {
				row[j] = u[p]
			}
			out = append(out, row)
		}
	case opFilter:
		out = a.List(0)
		for _, u := range l {
			if x.holds(o.conds, u) {
				out = append(out, u)
			}
		}
	case opProduct:
		out = a.List(len(l) * len(r))
		for _, u := range l {
			for _, v := range r {
				out = append(out, x.concat(u, v))
			}
		}
	case opUnion:
		out = append(append(a.List(len(l)+len(r)), l...), r...)
	case opDiff:
		drop := intern.NewRowSet(a, len(r))
		for _, v := range r {
			drop.Add(v)
		}
		a.Keep(drop.Rows)
		out = a.List(0)
		for _, u := range l {
			if !drop.Has(u) {
				out = append(out, u)
			}
		}
	}
	return a.Keep(out), len(l) + len(r), nil
}

// both runs o's two inputs, left first.
func (x *Execution) both(o *op) (l, r [][]uint32, err error) {
	if l, err = x.exec(o.l); err != nil {
		return nil, nil, err
	}
	r, err = x.exec(o.r)
	return l, r, err
}

// holds reports whether row r satisfies every condition.
func (x *Execution) holds(conds []cond, r []uint32) bool {
	for _, c := range conds {
		var rv uint32
		if c.rpos < 0 {
			rv = x.ids[c.val]
		} else {
			rv = r[c.rpos]
		}
		if (r[c.lpos] == rv) == c.neq {
			return false
		}
	}
	return true
}

// join evaluates σ(L × R) as a hash join on the key positions the compiler
// found, filtering the joined rows by the remaining conditions.
//
// A side that is a view scan is never scanned: the other side runs and
// each of its rows looks its matches up in the view version's memoized
// index, so the join costs O(|other|) per execution instead of O(|V|).
// Without a view side, a per-run index is built over the smaller side. The
// rows read are the same either way: both inputs in full, the view's
// extent included.
func (x *Execution) join(o *op) ([][]uint32, int, error) {
	a := &x.arena
	var lv, rv *ViewVersion
	var l, r [][]uint32
	var err error
	if o.lkey == "" && o.rkey == "" {
		l, r, err = x.both(o)
	} else if lv, l, err = x.joinInput(o.l, o.lkey); err == nil {
		rv, r, err = x.joinInput(o.r, o.rkey)
	}
	if err != nil {
		return nil, 0, err
	}
	// Look up into a view side's memoized index (the larger view's when
	// both sides are views), else into a per-run index over the smaller
	// side: a bounded plan's fetch side is often tiny while the view side
	// grows with |D|.
	indexLeft := len(l) < len(r)
	if lv != nil || rv != nil {
		indexLeft = rv == nil || (lv != nil && len(l) > len(r))
	}
	build, probe, buildPos, probePos, key, bv := r, l, o.rpos, o.pos, o.rkey, rv
	if indexLeft {
		build, probe, buildPos, probePos, key, bv = l, r, o.pos, o.rpos, o.lkey, lv
	}
	var index *intern.FlatIndex
	if bv != nil {
		index = bv.index(key, buildPos)
	} else {
		index = intern.NewFlatIndex(build, buildPos)
	}
	out, matches := a.List(0), a.List(0)
	for _, p := range probe {
		matches = index.Lookup(p, probePos, matches[:0])
		for _, m := range matches {
			u, v := p, m
			if indexLeft {
				u, v = m, p
			}
			if row := x.concat(u, v); x.holds(o.conds, row) {
				out = append(out, row)
			}
		}
	}
	a.Keep(matches)
	return a.Keep(out), len(l) + len(r), nil
}

// joinInput evaluates join input op i: a view scan (one with an index
// key) resolves to its version's rows, and the version its indices live
// in, without running; any other op runs.
func (x *Execution) joinInput(i int, key string) (*ViewVersion, [][]uint32, error) {
	if key == "" {
		rows, err := x.exec(i)
		return nil, rows, err
	}
	return x.views.view(x.p.ops[i].view)
}

// concat carves the concatenation of u and v from the run's arena.
func (x *Execution) concat(u, v []uint32) []uint32 {
	row := x.arena.Row(len(u) + len(v))
	copy(row[copy(row, u):], v)
	return row
}
