package plan

import "math"

// Stats carries the statistics the cost model consumes: relation and view
// cardinalities plus per-column distinct-ID counts (exact counts of D's
// rows and the view extents that the shard writer keeps in one store,
// the same at any shard count, published with every epoch). A nil
// *Stats is valid and falls back to schema-only defaults, so candidates
// can be ranked statically — purely from the access-constraint bounds N —
// before any database exists. A published Stats is immutable; copying
// the struct shares the underlying maps, which is safe read-only.
type Stats struct {
	RelRows      map[string]int            // relation -> |R|
	RelDistinct  map[string]map[string]int // relation -> attribute -> distinct IDs
	ViewRows     map[string]int            // view -> |V(D)|
	ViewDistinct map[string][]int          // view -> per-head-position distinct IDs
}

// Cost is the estimated execution cost of a plan over an instance shaped
// like the statistics. Fetch estimates |Dξ| — tuples fetched from the
// underlying database, the quantity bounded plans exist to minimize. Work
// estimates the intermediate tuples processed (scan volume plus join
// fan-out), and Rows the output cardinality.
type Cost struct {
	Fetch float64
	Work  float64
	Rows  float64
}

// fetchWeight prices one fetched tuple against one in-memory tuple: a
// fetch is an I/O against the underlying store while work is a hash-table
// operation over cached data, so fetches dominate unless they buy orders
// of magnitude less work.
const fetchWeight = 1000

// Score folds a Cost into one comparable number (lower is better).
func (c Cost) Score() float64 { return c.Fetch*fetchWeight + c.Work + c.Rows }

// Estimate costs a plan against the statistics (nil for static defaults).
func Estimate(n Node, st *Stats) Cost {
	return EstimateObserved(n, st, nil)
}

// EstimateObserved costs a plan against the statistics with an
// observed-cost overlay: where obs carries a realized group width for an
// access constraint, that width replaces the one derived from collected
// distinct counts (the skew-blind |R|/distinct average); realized join
// fan-outs replace the System-R selectivity guess inside hash joins (see
// joinCost); and the realized output cardinality replaces the estimated
// Rows term outright — every candidate answers the same query, so one
// plan's measured output is every plan's output. A nil obs — or one with
// no sample for a component — falls back to Estimate's behavior.
func EstimateObserved(n Node, st *Stats, obs *ObservedStats) Cost {
	e := costOf(n, st, obs)
	c := Cost{Fetch: e.fetch, Work: e.work, Rows: e.rows}
	if r, ok := obs.Rows(); ok {
		c.Rows = r
	}
	return c
}

// Best returns the index of the cheapest candidate and its cost; -1 for an
// empty candidate set. Candidates with a non-finite score (NaN or ±Inf —
// overflow of the float cost arithmetic on degenerate statistics) are
// skipped unless every score is non-finite; exact ties keep the
// lowest-index candidate, so selection is deterministic in the search
// order (which enumerates smallest plans first).
func Best(cands []Node, st *Stats) (int, Cost) {
	return BestObserved(cands, st, nil)
}

// BestObserved is Best under EstimateObserved's observation overlay.
func BestObserved(cands []Node, st *Stats, obs *ObservedStats) (int, Cost) {
	best, bc := -1, Cost{}
	bestFinite := false
	for i, p := range cands {
		c := EstimateObserved(p, st, obs)
		s := c.Score()
		finite := !math.IsNaN(s) && !math.IsInf(s, 0)
		switch {
		case best < 0:
			best, bc, bestFinite = i, c, finite
		case finite && !bestFinite:
			best, bc, bestFinite = i, c, true
		case finite == bestFinite && s < bc.Score():
			best, bc = i, c
		}
	}
	return best, bc
}

// Stats fallbacks when a statistic is absent (no database yet, or a
// relation/view the collector never saw).
const (
	defaultRelRows  = 10_000
	defaultViewRows = 1_000
)

func (st *Stats) relRows(rel string) float64 {
	if st != nil {
		if n, ok := st.RelRows[rel]; ok {
			return float64(n)
		}
	}
	return defaultRelRows
}

// relDist estimates the distinct values of one attribute, capped by the
// relation's rows. Without a collected count it assumes sqrt(|R|) — the
// neutral guess that keeps static ranking from treating every fetch group
// as either a singleton or the whole table.
func (st *Stats) relDist(rel, attr string, rows float64) float64 {
	if st != nil {
		if m, ok := st.RelDistinct[rel]; ok {
			if d, ok := m[attr]; ok {
				return clamp(float64(d), 1, math.Max(1, rows))
			}
		}
	}
	return clamp(math.Sqrt(math.Max(1, rows)), 1, math.Max(1, rows))
}

func (st *Stats) viewRows(name string) float64 {
	if st != nil {
		if n, ok := st.ViewRows[name]; ok {
			return float64(n)
		}
	}
	return defaultViewRows
}

func (st *Stats) viewDist(name string, arity int, rows float64) []float64 {
	out := make([]float64, arity)
	var d []int
	if st != nil {
		d = st.ViewDistinct[name]
	}
	for i := range out {
		if i < len(d) {
			out[i] = clamp(float64(d[i]), 1, math.Max(1, rows))
		} else {
			out[i] = clamp(math.Sqrt(math.Max(1, rows)), 1, math.Max(1, rows))
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

// est is the per-node estimate: cardinality, cumulative fetch and work,
// and per-output-column distinct counts (the selectivity state threaded
// bottom-up so equality conditions and join fan-outs are priced against
// the columns they actually touch).
type est struct {
	rows  float64
	fetch float64
	work  float64
	dist  []float64
}

func (e *est) capDist() {
	for i := range e.dist {
		e.dist[i] = clamp(e.dist[i], 1, math.Max(1, e.rows))
	}
}

func costOf(n Node, st *Stats, obs *ObservedStats) est {
	switch x := n.(type) {
	case *Const:
		return est{rows: 1, dist: []float64{1}}

	case *View:
		r := st.viewRows(x.Name)
		return est{rows: r, work: r, dist: st.viewDist(x.Name, len(x.Cols), r)}

	case *Fetch:
		relRows := st.relRows(x.C.Rel)
		xy := x.C.XY()
		if x.Child == nil {
			// Input-free fetch: one probe returning the distinct
			// XY-projections, bounded by both N and the table.
			r := math.Min(float64(x.C.N), relRows)
			if w, ok := obs.obsWidth(x.C.Key(), float64(x.C.N)); ok {
				r = w
			}
			d := make([]float64, len(xy))
			for i, a := range xy {
				d[i] = math.Min(st.relDist(x.C.Rel, a, relRows), math.Max(1, r))
			}
			return est{rows: r, fetch: r, work: r, dist: d}
		}
		c := costOf(x.Child, st, obs)
		childAttrs := x.Child.Attrs()
		bind := x.InBind()
		// Distinct probe keys: the execution dedupes child rows on the
		// binding before probing.
		keys := 1.0
		bindDist := make(map[string]float64, len(bind))
		for i, a := range bind {
			d := 1.0
			if p := indexOf(childAttrs, a); p >= 0 && p < len(c.dist) {
				d = c.dist[p]
			}
			bindDist[x.C.X[i]] = d
			keys *= d
		}
		keys = clamp(keys, 1, math.Max(1, c.rows))
		// Average group width on this D: |R| over the distinct X-combos,
		// never above the constraint's promise N. An observed width for
		// this constraint — what fetches through it actually returned per
		// probe — takes precedence over the collected-distinct-count
		// average, which skew can put an order of magnitude off.
		dx := 1.0
		for _, a := range x.C.X {
			dx *= st.relDist(x.C.Rel, a, relRows)
		}
		dx = clamp(dx, 1, math.Max(1, relRows))
		g := math.Min(float64(x.C.N), math.Max(1, relRows/dx))
		if w, ok := obs.obsWidth(x.C.Key(), float64(x.C.N)); ok {
			g = w
		}
		r := keys * g
		d := make([]float64, len(xy))
		for i, a := range xy {
			if bd, ok := bindDist[a]; ok {
				d[i] = bd
			} else {
				d[i] = st.relDist(x.C.Rel, a, relRows)
			}
		}
		e := est{rows: r, fetch: c.fetch + keys*g, work: c.work + c.rows + r, dist: d}
		e.capDist()
		return e

	case *Project:
		c := costOf(x.Child, st, obs)
		childAttrs := x.Child.Attrs()
		prod := 1.0
		d := make([]float64, len(x.Cols))
		for i, a := range x.Cols {
			di := 1.0
			if p := indexOf(childAttrs, a); p >= 0 && p < len(c.dist) {
				di = c.dist[p]
			}
			d[i] = di
			prod *= di
		}
		e := est{rows: math.Min(c.rows, math.Max(1, prod)), fetch: c.fetch, work: c.work + c.rows, dist: d}
		if c.rows == 0 {
			e.rows = 0
		}
		e.capDist()
		return e

	case *Select:
		if prod, ok := x.Child.(*Product); ok {
			if e, joined := joinCost(x, prod, st, obs); joined {
				return e
			}
		}
		c := costOf(x.Child, st, obs)
		e := est{rows: c.rows, fetch: c.fetch, work: c.work + c.rows, dist: append([]float64(nil), c.dist...)}
		applyConds(&e, x.Cond, x.Child.Attrs())
		return e

	case *Product:
		l, r := costOf(x.L, st, obs), costOf(x.R, st, obs)
		cross := l.rows * r.rows
		e := est{rows: cross, fetch: l.fetch + r.fetch, work: l.work + r.work + cross,
			dist: append(append([]float64(nil), l.dist...), r.dist...)}
		e.capDist()
		return e

	case *Union:
		l, r := costOf(x.L, st, obs), costOf(x.R, st, obs)
		e := est{rows: l.rows + r.rows, fetch: l.fetch + r.fetch, work: l.work + r.work + l.rows + r.rows}
		e.dist = make([]float64, len(l.dist))
		for i := range e.dist {
			d := l.dist[i]
			if i < len(r.dist) {
				d += r.dist[i]
			}
			e.dist[i] = d
		}
		e.capDist()
		return e

	case *Diff:
		l, r := costOf(x.L, st, obs), costOf(x.R, st, obs)
		e := est{rows: l.rows, fetch: l.fetch + r.fetch, work: l.work + r.work + l.rows + r.rows,
			dist: append([]float64(nil), l.dist...)}
		e.capDist()
		return e

	case *Rename:
		return costOf(x.Child, st, obs)

	default:
		return est{}
	}
}

// applyConds folds a selection's comparisons into the estimate using the
// per-column distinct counts: an equality against a constant keeps ~1/d of
// the rows and pins the column; an equality between columns keeps
// ~1/max(d1,d2) (the System-R join-selectivity rule); inequalities are
// treated as non-selective.
func applyConds(e *est, conds []CondItem, attrs []string) {
	for _, c := range conds {
		if c.Neq {
			continue
		}
		lp := indexOf(attrs, c.L)
		if lp < 0 || lp >= len(e.dist) {
			continue
		}
		if c.RConst {
			e.rows /= math.Max(1, e.dist[lp])
			e.dist[lp] = 1
			continue
		}
		rp := indexOf(attrs, c.R)
		if rp < 0 || rp >= len(e.dist) {
			continue
		}
		dl, dr := e.dist[lp], e.dist[rp]
		e.rows /= math.Max(1, math.Max(dl, dr))
		m := math.Min(dl, dr)
		e.dist[lp], e.dist[rp] = m, m
	}
	e.capDist()
}

// joinCost estimates σ_Cond(L × R) the way the executor runs it — as a
// hash join — when at least one condition equates columns across the two
// sides. Work is the two inputs plus the join output, never the cross
// product. joined is false when no cross-side equality exists (the generic
// path then prices the materialized product, matching execution).
func joinCost(sel *Select, prod *Product, st *Stats, obs *ObservedStats) (est, bool) {
	la, ra := prod.L.Attrs(), prod.R.Attrs()
	type crossEq struct{ lp, rp int } // positions in the combined row
	var cross []crossEq
	var local []CondItem
	for _, c := range sel.Cond {
		if c.Neq || c.RConst {
			local = append(local, c)
			continue
		}
		li, lInR := indexOf(la, c.L), indexOf(ra, c.L)
		ri, rInR := indexOf(la, c.R), indexOf(ra, c.R)
		switch {
		case li >= 0 && rInR >= 0:
			cross = append(cross, crossEq{lp: li, rp: len(la) + rInR})
		case lInR >= 0 && ri >= 0:
			cross = append(cross, crossEq{lp: ri, rp: len(la) + lInR})
		default:
			local = append(local, c)
		}
	}
	if len(cross) == 0 {
		return est{}, false
	}
	l, r := costOf(prod.L, st, obs), costOf(prod.R, st, obs)
	dist := append(append([]float64(nil), l.dist...), r.dist...)
	rows := l.rows * r.rows
	for _, eq := range cross {
		dl, dr := 1.0, 1.0
		if eq.lp < len(dist) {
			dl = dist[eq.lp]
		}
		if eq.rp < len(dist) {
			dr = dist[eq.rp]
		}
		rows /= math.Max(1, math.Max(dl, dr))
		m := math.Min(dl, dr)
		if eq.lp < len(dist) {
			dist[eq.lp] = m
		}
		if eq.rp < len(dist) {
			dist[eq.rp] = m
		}
	}
	// Observed fan-out overlay: the executor reports summed hash-join
	// input/output rows, so the realized out-per-in ratio re-prices this
	// join's output against its estimated inputs — replacing the System-R
	// 1/max(d) selectivity, which correlated columns can put orders of
	// magnitude off in either direction.
	if fan, ok := obs.JoinFanOut(); ok {
		rows = fan * (l.rows + r.rows)
	}
	e := est{rows: rows, fetch: l.fetch + r.fetch,
		work: l.work + r.work + l.rows + r.rows + rows, dist: dist}
	e.capDist()
	attrs := append(append([]string{}, la...), ra...)
	applyConds(&e, local, attrs)
	return e, true
}
