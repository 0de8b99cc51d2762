package repro

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vbrp"
)

// ErrNoBoundedRewriting is returned by Prepare when the query has no
// M-bounded rewriting in the requested language (the exhaustive search
// completed and found nothing).
var ErrNoBoundedRewriting = fmt.Errorf("repro: query has no M-bounded rewriting")

// prepCacheMax bounds each of the two prepared-query caches, the
// concrete one and the template one (positive and negative entries
// alike); see lookupPrep for the eviction order.
const prepCacheMax = 65536

// prepEntry is one slot of a prepared-query cache. In the template cache
// the once gates the exponential VBRP search: the first Prepare for a
// query shape runs it, and every later (or concurrent) Prepare of the same
// shape waits on the same entry and shares its frontier (cands) or its
// negative answer (err). In the concrete cache the once gates binding the
// template's frontier to one query's constants (pq). done flips after the
// once completes — an entry that is not done is mid-search (or about to
// be) and must never be evicted out from under its holder.
type prepEntry struct {
	once  sync.Once
	done  atomic.Bool
	cands []vbrp.Candidate // template entries: the frontier, over parameters
	pq    *PreparedQuery   // concrete entries
	err   error
}

// Observed-cost feedback knobs (see the README's "Self-tuning selection").
const (
	// feedbackDivergence triggers a re-rank: after absorbing a run, the
	// incumbent plan's overlaid score must have moved by at least this
	// factor (either direction) from the score it was ranked at. Below it
	// the estimates are deemed "close enough" and selection stays put —
	// the cheap-arithmetic guard that keeps steady state at one Estimate
	// per execution that moved the overlay or met a new epoch's
	// statistics, and none for one that did neither.
	feedbackDivergence = 2.0
	// feedbackHysteresis is the switching margin: a challenger must beat
	// the incumbent's overlaid score by this factor to take over. It is
	// what keeps two genuinely near-tied candidates from flapping as noisy
	// observations leapfrog their scores.
	feedbackHysteresis = 1.3
	// exploreEvery is the exploration budget: at most one execution in
	// this many serves a near-tied runner-up instead of the incumbent, so
	// a candidate whose estimate is pessimistic gets real observations
	// and can be promoted. Every candidate answers the query, so an
	// exploratory execution returns correct answers — it only risks
	// fetching more.
	exploreEvery = 64
	// exploreWithin bounds which runner-up qualifies: its overlaid score
	// must be within this factor of the incumbent's. Far-off candidates
	// are never re-tried — exploration refines ties, it does not
	// periodically re-run the worst plan in the frontier.
	exploreWithin = 4.0
)

// PreparedQuery is a compiled query handle: the full frontier of bounded
// candidate plans found by the VBRP search, bound to this query's
// constants, plus the cost-model selection state. The search runs once
// per query shape (Prepare's template cache); each concrete query gets
// its own PreparedQuery and so its own selection.
//
// Selection is closed-loop and revisited by one rule: the incumbent's
// price, under the serving epoch's statistics and the observation overlay,
// moving feedbackDivergence-fold from the price it was ranked at. Every
// Execute through the handle folds the run's per-op counters (realized
// per-constraint fetch groups, join fan-outs, output rows) into the
// overlay, and every epoch publishes exact statistics; when either moves,
// the incumbent is priced again, and only a diverged price re-ranks the
// cached frontier — a cheap arithmetic pass that is a re-pick, never a
// re-search — with hysteresis and a bounded exploration budget so
// selection converges instead of thrashing.
//
// Handles are safe for concurrent use; one handle may serve many Execute
// calls in parallel while deltas churn the Live state.
type PreparedQuery struct {
	sys   *System
	key   string
	lang  Language
	cands []vbrp.Candidate

	progs []*plan.Program // per candidate: its plan, compiled once

	staticSel  int       // min-cost candidate under static (nil) statistics
	staticCost plan.Cost // its static cost estimate

	mu   sync.Mutex
	sels map[uint64]*selState // Live handle id -> selection (bounded, see selFor)
}

// selState is one Live handle's cached plan selection and its accumulated
// observed-cost feedback. All fields are guarded by the PreparedQuery
// mutex. The state lives as long as the handle does: Handle.Close clears
// it (and a restart therefore starts from estimates again — observed
// statistics are deliberately not durable; see the README).
type selState struct {
	sel    int         // incumbent candidate index
	cost   plan.Cost   // incumbent's overlaid cost when last ranked
	st     *plan.Stats // statistics of the incumbent's last estimate
	obs    *plan.ObservedStats
	execs  int64 // executions attributed to this (handle, query) pair
	swaps  int64 // incumbent switches (diagnostics; the flap detector)
	probes int64 // exploratory executions of a runner-up
}

// maxLiveSelections bounds the per-handle selection cache; beyond it an
// entry for a handle OTHER than the one being served is dropped
// (re-selection is cheap arithmetic, but evicting the current handle
// would discard the very feedback this call is about to add).
const maxLiveSelections = 8

// SelectionStats reports one handle's closed-loop selection state for a
// prepared query: which candidate is serving, and how the feedback loop
// got there. It is a plain value copy taken under the selection lock;
// safe to copy, never updated after it is returned.
type SelectionStats struct {
	Selected     int   // incumbent candidate index (into Candidates())
	Executions   int64 // executions attributed to this (handle, query) pair
	Switches     int64 // times observation re-ranking changed the incumbent
	Explorations int64 // executions served by a near-tied runner-up
	Samples      int64 // runs absorbed into the overlay
}

// Prepare compiles a UCQ for repeated serving: it canonicalizes the query
// into a cache key (invariant under variable renaming and atom/disjunct
// reordering) and returns a handle that serves the min-cost candidate of
// the full VBRP candidate frontier. Repeated Prepare calls with
// equivalent queries — including renamed ones — return the same handle.
//
// The search runs once per query shape, not once per query. Every
// constant that occurs in no view definition becomes a parameter
// (plan.Abstract), equal constants sharing one, and the frontier of the
// parameterized query is searched once and cached as a template. A query
// that differs only in such constants binds its own constants into a copy
// of the template's plans, with the template's fetch bounds: queries are
// generic, so the renamed plans are bounded rewritings of the renamed
// query. Constants of the views stay verbatim, so a query that uses one
// (or that equates two of its constants differently) has a template of
// its own. Negative answers are cached per template too.
//
// Each concrete query still gets its own PreparedQuery, so plan selection
// and its observed-cost feedback stay per binding: a hot key does not
// steer the plan served for a cold one.
//
// The plan language defaults matter: pass LangUCQ for UCQ queries. The
// system's M is the size bound.
func (sys *System) Prepare(q *UCQ, lang Language) (*PreparedQuery, error) {
	key := lang.String() + "|" + plan.QueryKey(q)
	e, hit := sys.lookupPrep(&sys.prepQ, key)
	if hit {
		sys.prepHits.Add(1)
	}
	e.once.Do(func() {
		defer e.done.Store(true)
		abs, b := plan.Abstract(q, sys.viewConsts())
		tmpl, err := sys.template(abs, lang)
		if err != nil {
			e.err = err
			return
		}
		pq := &PreparedQuery{sys: sys, key: key, lang: lang, cands: make([]vbrp.Candidate, len(tmpl)),
			progs: make([]*plan.Program, len(tmpl)), sels: make(map[uint64]*selState)}
		for i, c := range tmpl {
			pq.cands[i] = vbrp.Candidate{Plan: b.Plan(c.Plan), FetchBound: c.FetchBound}
			if pq.progs[i], e.err = plan.Compile(pq.cands[i].Plan); e.err != nil {
				return
			}
		}
		// Static selection so Plan() is meaningful before any Live exists.
		pq.staticSel, pq.staticCost = pq.best(nil, nil)
		e.pq = pq
	})
	return e.pq, e.err
}

// template returns the candidate frontier of an abstracted query, running
// the VBRP search at most once per template key.
func (sys *System) template(abs *UCQ, lang Language) ([]vbrp.Candidate, error) {
	t, _ := sys.lookupPrep(&sys.prepT, lang.String()+"|"+plan.QueryKey(abs))
	t.once.Do(func() {
		defer t.done.Store(true)
		sys.prepSearches.Add(1)
		cands, err := sys.searchCandidates(abs, lang)
		if err != nil && err != vbrp.ErrSearchTruncated {
			t.err = err
			return
		}
		if len(cands) == 0 {
			if err == vbrp.ErrSearchTruncated {
				t.err = err // the "no" is unreliable: report the truncation
				return
			}
			t.err = ErrNoBoundedRewriting
			return
		}
		t.cands = cands
	})
	return t.cands, t.err
}

// lookupPrep returns the entry for key in the cache *m, creating it
// on a miss; hit reports that it existed. Beyond the cap an entry is
// evicted first — negative entries (no-rewriting and truncated-search
// results, which are cheap to rediscover and the likeliest product of
// adversarial query text) go first, and an entry whose once is still
// in-flight is never touched (its holders share the prepEntry; a later
// Prepare for an evicted key just searches or binds again). Keeps a
// long-running server's memory flat under naturally diverse or
// adversarial query text.
func (sys *System) lookupPrep(m *map[string]*prepEntry, key string) (e *prepEntry, hit bool) {
	sys.prepQMu.Lock()
	defer sys.prepQMu.Unlock()
	if *m == nil {
		*m = make(map[string]*prepEntry)
	}
	if e, hit = (*m)[key]; hit {
		return e, true
	}
	if len(*m) >= sys.prepCacheCap() {
		sys.evictPrepLocked(*m)
	}
	e = &prepEntry{}
	(*m)[key] = e
	return e, false
}

// viewConsts returns the constants of the view definitions: the ones
// plan.Abstract must keep verbatim.
func (sys *System) viewConsts() map[string]bool {
	fixed := map[string]bool{}
	for _, def := range sys.Views {
		for _, d := range def.Disjuncts {
			for _, c := range d.Constants() {
				fixed[c] = true
			}
		}
	}
	return fixed
}

// prepCacheCap returns the bound of each prepared-query cache (the test
// seam defaults to prepCacheMax).
func (sys *System) prepCacheCap() int {
	if sys.prepCacheBound > 0 {
		return sys.prepCacheBound
	}
	return prepCacheMax
}

// evictPrepLocked drops one evictable entry of cache m: a completed
// negative entry if any exists, else a completed positive one. Entries
// whose once is mid-flight are never evicted (the map may transiently
// exceed the cap when every entry is in-flight). Callers hold prepQMu.
func (sys *System) evictPrepLocked(m map[string]*prepEntry) {
	victim := ""
	for k, e := range m {
		if !e.done.Load() {
			continue
		}
		if e.err != nil {
			victim = k // negative entry: evict it and stop looking
			break
		}
		if victim == "" {
			victim = k
		}
	}
	if victim == "" {
		return
	}
	delete(m, victim)
	sys.prepEvicts.Add(1)
}

// PrepareCacheStats reports the prepared-query cache counters: the number
// of VBRP searches actually run (one per template, i.e. per query shape;
// see Prepare), the number of Prepare calls served from the concrete
// cache, and the number of entries either cache evicted under its bound.
// A Prepare that misses the concrete cache but binds a cached template
// counts as neither a search nor a hit.
func (sys *System) PrepareCacheStats() (searches, hits, evictions int64) {
	return sys.prepSearches.Load(), sys.prepHits.Load(), sys.prepEvicts.Load()
}

// estimate prices one compiled candidate under statistics and an
// observation overlay. Selection prices only through it, so a test can
// count what a re-rank costs.
var estimate = (*plan.Program).Estimate

// best returns the candidate with the least overlaid cost and its cost.
func (pq *PreparedQuery) best(st *plan.Stats, obs *plan.ObservedStats) (int, plan.Cost) {
	return plan.Cheapest(len(pq.progs), func(i int) plan.Cost { return estimate(pq.progs[i], st, obs) })
}

// Key returns the canonical cache key the query was prepared under.
func (pq *PreparedQuery) Key() string { return pq.key }

// Candidates returns the enumerated candidate plans (the budgeted
// frontier), in search order. The slice is shared; treat it as read-only.
func (pq *PreparedQuery) Candidates() []Plan {
	out := make([]Plan, len(pq.cands))
	for i, c := range pq.cands {
		out[i] = c.Plan
	}
	return out
}

// Plan returns the statically selected plan and its estimated cost (the
// min-cost candidate under default statistics — what HasBoundedRewriting
// would return). Per-Live selections live with the handles (see Execute).
func (pq *PreparedQuery) Plan() (Plan, plan.Cost) {
	return pq.cands[pq.staticSel].Plan, pq.staticCost
}

// SelectionStats reports the closed-loop selection state this prepared
// query holds for the handle (false when the handle never executed the
// query, or its state was cleared by Handle.Close).
func (pq *PreparedQuery) SelectionStats(h Handle) (SelectionStats, bool) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	s, ok := pq.sels[h.handleID()]
	if !ok {
		return SelectionStats{}, false
	}
	return SelectionStats{
		Selected:     s.sel,
		Executions:   s.execs,
		Switches:     s.swaps,
		Explorations: s.probes,
		Samples:      s.obs.Samples(),
	}, true
}

// selFor returns the handle's selection state, creating or re-ranking it
// as needed. Callers hold pq.mu.
func (pq *PreparedQuery) selFor(id uint64, st *plan.Stats, met *obs.Core) *selState {
	s, ok := pq.sels[id]
	if !ok {
		if len(pq.sels) >= maxLiveSelections {
			pq.evictSelLocked(id)
		}
		s = &selState{st: st, obs: plan.NewObservedStats()}
		s.sel, s.cost = pq.best(st, s.obs)
		pq.sels[id] = s
		return s
	}
	if s.st != st {
		// Every epoch publishes new statistics. Price the incumbent under
		// them with the overlay and re-rank only on feedback's divergence
		// test, so churn that moves no price moves no selection, and a
		// correction learned from execution survives the skew-blind
		// averages.
		s.st = st
		if cur := estimate(pq.progs[s.sel], st, s.obs); diverged(cur.Score(), s.cost.Score()) {
			pq.rerankLocked(s, st, cur, met)
		}
	}
	return s
}

// evictSelLocked drops one selection entry for a handle other than keep.
// Callers hold pq.mu.
func (pq *PreparedQuery) evictSelLocked(keep uint64) {
	for sid := range pq.sels {
		if sid != keep {
			delete(pq.sels, sid)
			return
		}
	}
}

// dropHandle clears a closed handle's selection state so dead handle ids
// stop occupying cache slots (called from Handle.Close via the System).
func (pq *PreparedQuery) dropHandle(id uint64) {
	pq.mu.Lock()
	delete(pq.sels, id)
	pq.mu.Unlock()
}

// rerankLocked re-ranks the frontier under the observation overlay and
// switches the incumbent only when the challenger clears the hysteresis
// margin. cur is the incumbent's fresh price under st and the overlay, so
// one re-rank prices each candidate once. Callers hold pq.mu.
func (pq *PreparedQuery) rerankLocked(s *selState, st *plan.Stats, cur plan.Cost, met *obs.Core) {
	if met != nil {
		met.Reranks.Add(1)
	}
	best, bc := plan.Cheapest(len(pq.progs), func(i int) plan.Cost {
		if i == s.sel {
			return cur
		}
		return estimate(pq.progs[i], st, s.obs)
	})
	s.st = st
	if best != s.sel && bc.Score()*feedbackHysteresis < cur.Score() {
		s.sel, s.cost = best, bc
		s.swaps++
		if met != nil {
			met.Switches.Add(1)
		}
		return
	}
	s.cost = cur
}

// pickPlan chooses the candidate to execute for this call: the incumbent,
// or — once per exploreEvery executions — a near-tied runner-up, so a
// pessimistically estimated candidate gets real observations and can be
// promoted. Returns the candidate index the run must be attributed to.
func (pq *PreparedQuery) pickPlan(id uint64, st *plan.Stats, met *obs.Core) (int, bool) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	s := pq.selFor(id, st, met)
	s.execs++
	idx := s.sel
	explore := false
	if exploreEvery > 0 && s.execs%exploreEvery == 0 && s.obs.Samples() > 0 {
		if ri, rc, ok := pq.runnerUpLocked(s, st); ok && rc.Score() <= s.cost.Score()*exploreWithin {
			s.probes++
			idx = ri
			explore = true
			if met != nil {
				met.Explores.Add(1)
			}
		}
	}
	return idx, explore
}

// runnerUpLocked returns the best-scored candidate other than the
// incumbent under the overlay. Callers hold pq.mu.
func (pq *PreparedQuery) runnerUpLocked(s *selState, st *plan.Stats) (int, plan.Cost, bool) {
	best, bc := -1, plan.Cost{}
	for i, p := range pq.progs {
		if i == s.sel {
			continue
		}
		cost := estimate(p, st, s.obs)
		if best < 0 || cost.Score() < bc.Score() {
			best, bc = i, cost
		}
	}
	return best, bc, best >= 0
}

// feedback folds the slots and answer count of one run of candidate
// executed into the handle's selection state and re-ranks when the
// incumbent's overlaid score diverged past the threshold from the score it
// was ranked at (or when the run explored a runner-up, whose fresh
// observations are exactly what a re-rank needs). The incumbent is priced
// again only when something its price depends on moved: when no overlay
// mean moved, the incumbent ran and its last estimate used these very
// (immutable) statistics, that estimate stands — and, unless its score is
// non-finite, it left a selection that a re-estimate would not re-rank.
func (pq *PreparedQuery) feedback(id uint64, st *plan.Stats, executed int, slots []plan.Slot, rows int, met *obs.Core) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	s, ok := pq.sels[id]
	if !ok {
		// The selection was evicted or the handle closed mid-flight;
		// nothing to attribute the run to.
		return
	}
	moved := s.obs.Absorb(pq.progs[executed], slots, rows)
	if !moved && executed == s.sel && st == s.st && finite(s.cost.Score()) {
		return
	}
	s.st = st
	cur := estimate(pq.progs[s.sel], st, s.obs)
	if executed != s.sel || diverged(cur.Score(), s.cost.Score()) {
		pq.rerankLocked(s, st, cur, met)
	}
}

// diverged reports whether an overlaid score moved past the feedback
// divergence threshold from the score the ranking trusted. Non-finite
// scores always count as diverged.
func diverged(now, ranked float64) bool {
	if !finite(now) || !finite(ranked) {
		return true
	}
	lo, hi := math.Min(now, ranked), math.Max(now, ranked)
	if lo <= 0 {
		return hi > 0
	}
	return hi/lo >= feedbackDivergence
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Execute serves the query against a handle at any shard count: the
// candidate selected by the closed-loop cost model runs over the current
// epoch's views and indices, and the run's per-op counters feed the next
// selection. Returns the answer rows and the tuples this call fetched from
// the underlying database, also when it fails.
func (pq *PreparedQuery) Execute(h Handle) ([][]string, int, error) {
	st, _ := h.Stats()
	return pq.serve(h, h.handleID(), st, h.metricsCore())
}

// ExecuteOn serves the query against a pinned snapshot: the selected
// candidate under the snapshot's statistics runs against exactly the
// snapshot's epoch. Its run feeds the same per-handle selection state as
// Execute — a snapshot read is a real measurement of its epoch.
func (pq *PreparedQuery) ExecuteOn(s *Snapshot) ([][]string, int, error) {
	st, _ := s.Stats()
	return pq.serve(s, s.hid, st, s.met())
}

// serve runs the candidate picked for handle id on r and, when the run
// succeeds, feeds its slots back into the handle's selection.
func (pq *PreparedQuery) serve(r runner, id uint64, st *plan.Stats, met *obs.Core) ([][]string, int, error) {
	idx, explore := pq.pickPlan(id, st, met)
	rows, x, err := r.executeObserved(pq.cands[idx].Plan, pq.progs[idx], traceCtx{key: pq.key, candidate: idx, explore: explore})
	fetched := x.Fetched()
	if err == nil {
		pq.feedback(id, st, idx, x.Slots(), len(rows), met)
	}
	x.Release()
	return rows, fetched, err
}
