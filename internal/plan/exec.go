package plan

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/intern"
	"repro/internal/par"
)

// Source is what plan execution reads the underlying database through: the
// value dictionary rows are interned against, and the fetch function of the
// access constraints. Every source probes the one fetch index,
// instance.VIndex: a static version is a Source itself, and the serving
// engine (internal/shard) routes each fetch to the owning partition's
// pinned version or gathers across all of them. FetchIDs must return the
// distinct XY-projections for the X-value; returned rows must stay valid
// (and unmutated) for the duration of the plan run. Sources do no fetch
// accounting: Run counts the tuples every fetch returns.
type Source interface {
	Dict() *intern.Dict
	FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error)
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
// building it on first demand.
func (vv *ViewVersion) index(pos []int) *intern.FlatIndex {
	key := posKey(pos)
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
	b := make([]byte, 0, 4*len(pos))
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
// relation with set semantics and the number of tuples the run fetched
// from the underlying database (|Dξ|). fetched counts every tuple a Fetch
// node got back, also when the run fails later. A nil pv serves no views
// (View nodes error). Execution is interned end-to-end: rows are
// ID-encoded against the source's dictionary and decoded only here at the
// boundary. Independent subtrees (products, unions, differences, the two
// sides of a hash join) run concurrently on the bounded worker pool, so
// src must be safe for concurrent fetches.
func Run(n Node, src Source, pv *PreparedViews) (rows [][]string, fetched int, err error) {
	rows, fetched, _, err = runOn(n, src, pv, false)
	return rows, fetched, err
}

// RunObserved is Run with execution profiling: alongside the answer it
// returns the run's Observation — realized per-constraint fetch groups,
// hash-join fan-outs and the output cardinality — the feedback signal a
// serving layer folds into an ObservedStats to correct the cost model's
// estimates. Profiling costs a few counter updates per operator, not per
// row; Run skips even that.
func RunObserved(n Node, src Source, pv *PreparedViews) ([][]string, int, *Observation, error) {
	return runOn(n, src, pv, true)
}

func runOn(n Node, src Source, pv *PreparedViews, observe bool) ([][]string, int, *Observation, error) {
	if pv == nil {
		pv = NewPreparedViews(src.Dict(), nil)
	} else if pv.d != src.Dict() {
		return nil, 0, nil, fmt.Errorf("plan: prepared views belong to a different database")
	}
	ctx := &execCtx{src: src, d: src.Dict(), views: pv}
	if observe {
		ctx.obs = &Observation{}
	}
	rows, err := ctx.run(n)
	fetched := int(ctx.fetched.Load())
	if err != nil {
		return nil, fetched, ctx.obs, err
	}
	seen := intern.NewSet(len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if seen.Add(r) {
			out = append(out, r)
		}
	}
	if ctx.obs != nil {
		ctx.obs.Rows = len(out)
	}
	return ctx.d.DecodeAll(out), fetched, ctx.obs, nil
}

// execCtx carries one execution's state: the fetch source, the view set
// (whose view versions outlive the run), the fetched-tuple count and the
// optional profile.
type execCtx struct {
	src     Source
	d       *intern.Dict
	views   *PreparedViews
	fetched atomic.Int64 // tuples returned by fetches; parallel subtrees add concurrently

	obs   *Observation // nil unless RunObserved; guarded by obsMu
	obsMu sync.Mutex   // parallel subtrees record concurrently
}

// observeFetch records one fetch node's realized traffic: probes distinct
// probe keys through constraint c returned rows tuples.
func (ctx *execCtx) observeFetch(c *access.Constraint, probes, rows int) {
	if ctx.obs == nil {
		return
	}
	ctx.obsMu.Lock()
	ctx.obs.addGroup(c.Key(), probes, rows)
	ctx.obsMu.Unlock()
}

// observeJoin records one hash join's realized fan-out.
func (ctx *execCtx) observeJoin(in, out int) {
	if ctx.obs == nil {
		return
	}
	ctx.obsMu.Lock()
	ctx.obs.JoinIn += in
	ctx.obs.JoinOut += out
	ctx.obsMu.Unlock()
}

// both evaluates two subtrees, concurrently when workers are free and
// neither is a leaf: a leaf (a constant or a view scan) costs less to run
// inline than to hand to another goroutine.
func (ctx *execCtx) both(ln, rn Node) (l, r [][]uint32, err error) {
	if isLeaf(ln) || isLeaf(rn) {
		if l, err = ctx.run(ln); err != nil {
			return nil, nil, err
		}
		r, err = ctx.run(rn)
		return l, r, err
	}
	var lerr, rerr error
	perr := par.Do(
		func() error { l, lerr = ctx.run(ln); return lerr },
		func() error { r, rerr = ctx.run(rn); return rerr },
	)
	return l, r, perr
}

func isLeaf(n Node) bool {
	if _, ok := n.(*Const); ok {
		return true
	}
	return viewLeaf(n) != nil
}

// viewLeaf returns the View under n's renamings, or nil when n is not a
// (renamed) view scan. Renaming keeps column positions, so positions in
// n's output are positions in the view's rows.
func viewLeaf(n Node) *View {
	for {
		switch x := n.(type) {
		case *View:
			return x
		case *Rename:
			n = x.Child
		default:
			return nil
		}
	}
}

func (ctx *execCtx) run(n Node) ([][]uint32, error) {
	switch x := n.(type) {
	case *Const:
		return [][]uint32{{ctx.d.ID(x.Val)}}, nil

	case *View:
		_, rows, err := ctx.views.view(x)
		return rows, err

	case *Fetch:
		var inputs [][]uint32
		if x.Child == nil {
			inputs = [][]uint32{{}}
		} else {
			childRows, err := ctx.run(x.Child)
			if err != nil {
				return nil, err
			}
			// Project child rows onto the constraint's X order via the
			// positional binding.
			pos, err := positions(x.Child.Attrs(), x.InBind(), "fetch child")
			if err != nil {
				return nil, err
			}
			seen := intern.NewSet(len(childRows))
			for _, r := range childRows {
				if key, fresh := seen.AddProj(r, pos); fresh {
					inputs = append(inputs, key)
				}
			}
		}
		var out [][]uint32
		for _, in := range inputs {
			rows, err := ctx.src.FetchIDs(x.C, in)
			if err != nil {
				ctx.fetched.Add(int64(len(out)))
				return nil, err
			}
			out = append(out, rows...)
		}
		ctx.fetched.Add(int64(len(out)))
		if x.As != nil && len(out) > 0 && len(out[0]) != len(x.As) {
			return nil, fmt.Errorf("plan: fetch names %d outputs for %d-column tuples", len(x.As), len(out[0]))
		}
		ctx.observeFetch(x.C, len(inputs), len(out))
		return out, nil

	case *Project:
		pos, err := positions(x.Child.Attrs(), x.Cols, "projection input")
		if err != nil {
			return nil, err
		}
		childRows, err := ctx.run(x.Child)
		if err != nil {
			return nil, err
		}
		out := make([][]uint32, 0, len(childRows))
		for _, r := range childRows {
			out = append(out, intern.Project(r, pos))
		}
		return out, nil

	case *Select:
		// Equality selections directly over a product run as a hash join:
		// same semantics, linear instead of quadratic time. This matters
		// because cached views may be large even when fetches are bounded.
		if prod, ok := x.Child.(*Product); ok {
			if out, done, err := ctx.hashJoin(x, prod); done {
				return out, err
			}
		}
		conds, err := ctx.resolveConds(x.Cond, x.Child.Attrs())
		if err != nil {
			return nil, err
		}
		childRows, err := ctx.run(x.Child)
		if err != nil {
			return nil, err
		}
		var out [][]uint32
		for _, r := range childRows {
			if holds(conds, r) {
				out = append(out, r)
			}
		}
		return out, nil

	case *Product:
		l, r, err := ctx.both(x.L, x.R)
		if err != nil {
			return nil, err
		}
		out := make([][]uint32, 0, len(l)*len(r))
		for _, a := range l {
			for _, b := range r {
				out = append(out, concat(a, b))
			}
		}
		return out, nil

	case *Union:
		if err := sameArity(x.L, x.R, "union"); err != nil {
			return nil, err
		}
		l, r, err := ctx.both(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil

	case *Diff:
		if err := sameArity(x.L, x.R, "difference"); err != nil {
			return nil, err
		}
		l, r, err := ctx.both(x.L, x.R)
		if err != nil {
			return nil, err
		}
		drop := intern.NewSet(len(r))
		for _, b := range r {
			drop.Add(b)
		}
		var out [][]uint32
		for _, a := range l {
			if !drop.Has(a) {
				out = append(out, a)
			}
		}
		return out, nil

	case *Rename:
		return ctx.run(x.Child)

	default:
		return nil, fmt.Errorf("plan: unknown node type %T", n)
	}
}

// cond is a CondItem with attribute names resolved to row positions and
// constants interned: lpos op (rpos | rconst), flipped by neq.
type cond struct {
	lpos   int
	rpos   int // -1 when the right side is a constant
	rconst uint32
	neq    bool
}

func (ctx *execCtx) resolveConds(items []CondItem, attrs []string) ([]cond, error) {
	out := make([]cond, len(items))
	for i, c := range items {
		rc := cond{lpos: indexOf(attrs, c.L), rpos: -1, neq: c.Neq}
		if rc.lpos < 0 {
			return nil, fmt.Errorf("plan: selection input lacks attribute %s", c.L)
		}
		if c.RConst {
			rc.rconst = ctx.d.ID(c.R)
		} else if rc.rpos = indexOf(attrs, c.R); rc.rpos < 0 {
			return nil, fmt.Errorf("plan: selection input lacks attribute %s", c.R)
		}
		out[i] = rc
	}
	return out, nil
}

// holds reports whether row r satisfies every condition.
func holds(conds []cond, r []uint32) bool {
	for _, c := range conds {
		rv := c.rconst
		if c.rpos >= 0 {
			rv = r[c.rpos]
		}
		if (r[c.lpos] == rv) == c.neq {
			return false
		}
	}
	return true
}

// hashJoin evaluates σ_Cond(L × R) as a hash join when every cross-side
// condition is an equality. Side-local conditions are applied as filters.
// done is false when the condition shape does not permit the rewrite.
//
// A side that is a view leaf (under renamings) is never scanned: the
// other side runs and each of its rows looks its matches up in the view
// version's memoized index, so the join costs O(|other|) per execution
// instead of O(|V|). Without a view side, a per-run index is built over
// the smaller side. The Observation is the same either way: JoinIn counts
// both inputs in full, the view's extent included.
func (ctx *execCtx) hashJoin(sel *Select, prod *Product) ([][]uint32, bool, error) {
	la, ra := prod.L.Attrs(), prod.R.Attrs()
	var joinL, joinR []int    // cross-side equality positions
	var localConds []CondItem // conditions evaluable on the combined row
	for _, c := range sel.Cond {
		if c.Neq {
			return nil, false, nil
		}
		if c.RConst {
			localConds = append(localConds, c)
			continue
		}
		li, lInL := indexOf(la, c.L), indexOf(ra, c.L)
		ri, rInL := indexOf(la, c.R), indexOf(ra, c.R)
		switch {
		case li >= 0 && rInL >= 0: // L-attr = R-attr
			joinL, joinR = append(joinL, li), append(joinR, rInL)
		case lInL >= 0 && ri >= 0: // R-attr = L-attr
			joinL, joinR = append(joinL, ri), append(joinR, lInL)
		default:
			localConds = append(localConds, c)
		}
	}
	if len(joinL) == 0 {
		return nil, false, nil
	}
	conds, err := ctx.resolveConds(localConds, append(append([]string{}, la...), ra...))
	if err != nil {
		return nil, true, err
	}
	var lm, rm *ViewVersion
	var lRows, rRows [][]uint32
	lv, rv := viewLeaf(prod.L), viewLeaf(prod.R)
	if lv == nil && rv == nil {
		lRows, rRows, err = ctx.both(prod.L, prod.R)
	} else if lm, lRows, err = ctx.joinInput(prod.L, lv); err == nil {
		rm, rRows, err = ctx.joinInput(prod.R, rv)
	}
	if err != nil {
		return nil, true, err
	}
	// Look up into a view side's memoized index (the larger view's when
	// both sides are views), else into a per-run index over the smaller
	// side: a bounded plan's fetch side is often tiny while the view side
	// grows with |D|.
	indexLeft := len(lRows) < len(rRows)
	if lm != nil || rm != nil {
		indexLeft = rm == nil || (lm != nil && len(lRows) > len(rRows))
	}
	build, probe, buildPos, probePos, bm := rRows, lRows, joinR, joinL, rm
	if indexLeft {
		build, probe, buildPos, probePos, bm = lRows, rRows, joinL, joinR, lm
	}
	var index *intern.FlatIndex
	if bm != nil {
		index = bm.index(buildPos)
	} else {
		index = intern.NewFlatIndex(build, buildPos)
	}
	var out, matches [][]uint32
	for _, p := range probe {
		matches = index.Lookup(p, probePos, matches[:0])
		for _, m := range matches {
			var row []uint32
			if indexLeft {
				row = concat(m, p)
			} else {
				row = concat(p, m)
			}
			if holds(conds, row) {
				out = append(out, row)
			}
		}
	}
	ctx.observeJoin(len(lRows)+len(rRows), len(out))
	return out, true, nil
}

// joinInput evaluates one join input: a view leaf v resolves to its
// version's rows (and the version its indices live in) without running;
// any other node runs.
func (ctx *execCtx) joinInput(n Node, v *View) (*ViewVersion, [][]uint32, error) {
	if v == nil {
		rows, err := ctx.run(n)
		return nil, rows, err
	}
	return ctx.views.view(v)
}

func concat(a, b []uint32) []uint32 {
	row := make([]uint32, 0, len(a)+len(b))
	return append(append(row, a...), b...)
}

// positions resolves each name in names to its position in attrs, failing
// on a name what (the input being read) lacks.
func positions(attrs, names []string, what string) ([]int, error) {
	pos := make([]int, len(names))
	for i, a := range names {
		if pos[i] = indexOf(attrs, a); pos[i] < 0 {
			return nil, fmt.Errorf("plan: %s lacks attribute %s", what, a)
		}
	}
	return pos, nil
}

func sameArity(l, r Node, op string) error {
	if nl, nr := len(l.Attrs()), len(r.Attrs()); nl != nr {
		return fmt.Errorf("plan: %s children have arities %d and %d", op, nl, nr)
	}
	return nil
}

func indexOf(xs []string, a string) int {
	for i, x := range xs {
		if x == a {
			return i
		}
	}
	return -1
}
