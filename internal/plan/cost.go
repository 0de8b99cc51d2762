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
	p := pooled(n)
	defer p.release()
	return p.Estimate(st, nil)
}

// Estimate costs the compiled program against the statistics with an
// observed-cost overlay: where obs carries a realized group width for an
// access constraint, that width replaces the one derived from collected
// distinct counts (the skew-blind |R|/distinct average); realized join
// fan-outs replace the System-R selectivity guess inside hash joins (see
// opCost); and the realized output cardinality replaces the estimated
// Rows term outright — every candidate answers the same query, so one
// plan's measured output is every plan's output. A nil obs — or one with
// no sample for a component — prices from the statistics alone.
func (p *Program) Estimate(st *Stats, obs *ObservedStats) Cost {
	e := p.cost(st, obs)
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
	return Cheapest(len(cands), func(i int) Cost { return Estimate(cands[i], st) })
}

// Cheapest applies Best's rules to the costs of n candidates, pricing
// each once through cost.
func Cheapest(n int, cost func(int) Cost) (int, Cost) {
	best, bc := -1, Cost{}
	bestFinite := false
	for i := range n {
		c := cost(i)
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

// cost estimates the compiled program bottom-up, over the operators the
// executor runs — a selection over a product is priced as a hash join
// exactly when it runs as one — and returns the root's estimate. The ops
// are in post-order, so each op's inputs are estimated before it. A
// program that failed to compile still has every op; a position it could
// not resolve (-1) prices as one distinct value.
func (p *Program) cost(st *Stats, obs *ObservedStats) est {
	ests := make([]est, len(p.ops))
	for i := range p.ops {
		ests[i] = opCost(&p.ops[i], ests, st, obs)
	}
	return ests[len(ests)-1]
}

// distAt returns the distinct count at position i, 1 when i is not one.
func distAt(dist []float64, i int) float64 {
	if i >= 0 && i < len(dist) {
		return dist[i]
	}
	return 1
}

func opCost(o *op, ests []est, st *Stats, obs *ObservedStats) est {
	var l, r est
	if o.l >= 0 {
		l = ests[o.l]
	}
	if o.r >= 0 {
		r = ests[o.r]
	}
	var e est
	switch o.kind {
	case opConst:
		return est{rows: 1, dist: []float64{1}}

	case opView:
		n := st.viewRows(o.view.Name)
		return est{rows: n, work: n, dist: st.viewDist(o.view.Name, len(o.view.Cols), n)}

	case opFetch:
		relRows := st.relRows(o.c.Rel)
		xy := o.c.XY()
		d := make([]float64, len(xy))
		if o.l < 0 {
			// Input-free fetch: one probe returning the distinct
			// XY-projections, bounded by both N and the table.
			n := math.Min(float64(o.c.N), relRows)
			if w, ok := obs.obsWidth(o.c.Key(), float64(o.c.N)); ok {
				n = w
			}
			for i, a := range xy {
				d[i] = math.Min(st.relDist(o.c.Rel, a, relRows), math.Max(1, n))
			}
			return est{rows: n, fetch: n, work: n, dist: d}
		}
		// Distinct probe keys: the execution dedupes child rows on the
		// binding before probing.
		keys := 1.0
		for _, q := range o.pos {
			keys *= distAt(l.dist, q)
		}
		keys = clamp(keys, 1, math.Max(1, l.rows))
		// Average group width on this D: |R| over the distinct X-combos,
		// never above the constraint's promise N. An observed width for
		// this constraint — what fetches through it actually returned per
		// probe — takes precedence over the collected-distinct-count
		// average, which skew can put an order of magnitude off.
		dx := 1.0
		for _, a := range o.c.X {
			dx *= st.relDist(o.c.Rel, a, relRows)
		}
		dx = clamp(dx, 1, math.Max(1, relRows))
		g := math.Min(float64(o.c.N), math.Max(1, relRows/dx))
		if w, ok := obs.obsWidth(o.c.Key(), float64(o.c.N)); ok {
			g = w
		}
		for i, a := range xy {
			if k := indexOf(o.c.X, a); k >= 0 && k < len(o.pos) {
				d[i] = distAt(l.dist, o.pos[k])
			} else {
				d[i] = st.relDist(o.c.Rel, a, relRows)
			}
		}
		e = est{rows: keys * g, fetch: l.fetch + keys*g, work: l.work + l.rows + keys*g, dist: d}

	case opProject:
		prod := 1.0
		d := make([]float64, len(o.pos))
		for i, q := range o.pos {
			d[i] = distAt(l.dist, q)
			prod *= d[i]
		}
		e = est{rows: math.Min(l.rows, math.Max(1, prod)), fetch: l.fetch, work: l.work + l.rows, dist: d}
		if l.rows == 0 {
			e.rows = 0
		}

	case opFilter:
		e = est{rows: l.rows, fetch: l.fetch, work: l.work + l.rows, dist: append([]float64(nil), l.dist...)}
		applyConds(&e, o.conds)
		return e

	case opJoin:
		// Work is the two inputs plus the join output, never the cross
		// product.
		dist := append(append([]float64(nil), l.dist...), r.dist...)
		rows := l.rows * r.rows
		for k, lp := range o.pos {
			rows /= equate(dist, lp, len(l.dist)+o.rpos[k])
		}
		// Observed fan-out overlay: the executor reports summed hash-join
		// input/output rows, so the realized out-per-in ratio re-prices
		// this join's output against its estimated inputs — replacing the
		// System-R 1/max(d) selectivity, which correlated columns can put
		// orders of magnitude off in either direction.
		if fan, ok := obs.JoinFanOut(); ok {
			rows = fan * (l.rows + r.rows)
		}
		e = est{rows: rows, fetch: l.fetch + r.fetch, work: l.work + r.work + l.rows + r.rows + rows, dist: dist}
		e.capDist()
		applyConds(&e, o.conds)
		return e

	case opProduct:
		cross := l.rows * r.rows
		e = est{rows: cross, fetch: l.fetch + r.fetch, work: l.work + r.work + cross,
			dist: append(append([]float64(nil), l.dist...), r.dist...)}

	case opUnion:
		e = est{rows: l.rows + r.rows, fetch: l.fetch + r.fetch, work: l.work + r.work + l.rows + r.rows}
		e.dist = make([]float64, len(l.dist))
		for i := range e.dist {
			e.dist[i] = l.dist[i]
			if i < len(r.dist) {
				e.dist[i] += r.dist[i]
			}
		}

	default: // opDiff
		e = est{rows: l.rows, fetch: l.fetch + r.fetch, work: l.work + r.work + l.rows + r.rows,
			dist: append([]float64(nil), l.dist...)}
	}
	e.capDist()
	return e
}

// equate prices an equality between columns i and j (the System-R rule:
// it keeps ~1/max(d_i, d_j) of the rows), leaves both at min(d_i, d_j)
// distinct values and returns the divisor.
func equate(dist []float64, i, j int) float64 {
	di, dj := distAt(dist, i), distAt(dist, j)
	m := math.Min(di, dj)
	for _, k := range [2]int{i, j} {
		if k >= 0 && k < len(dist) {
			dist[k] = m
		}
	}
	return math.Max(1, math.Max(di, dj))
}

// applyConds folds a selection's comparisons into the estimate using the
// per-column distinct counts: an equality against a constant keeps ~1/d of
// the rows and pins the column; an equality between columns is priced by
// equate; inequalities are treated as non-selective.
func applyConds(e *est, conds []cond) {
	for _, c := range conds {
		if c.neq || c.lpos < 0 || c.lpos >= len(e.dist) {
			continue
		}
		if c.rpos < 0 {
			e.rows /= math.Max(1, e.dist[c.lpos])
			e.dist[c.lpos] = 1
		} else if c.rpos < len(e.dist) {
			e.rows /= equate(e.dist, c.lpos, c.rpos)
		}
	}
	e.capDist()
}
