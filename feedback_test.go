package repro

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/workload"
)

func feedbackSystem(t *testing.T) (*System, *workload.PlanFeedback) {
	t.Helper()
	fx := workload.NewPlanFeedback()
	sys, err := NewSystem(fx.Schema, fx.Access, fx.Views(), fx.M)
	if err != nil {
		t.Fatal(err)
	}
	return sys, fx
}

// realizedFetches executes every candidate directly (outside the feedback
// loop) and returns the per-candidate |Dξ| plus the minimum.
func realizedFetches(t *testing.T, pq *PreparedQuery, h Handle) ([]int, int) {
	t.Helper()
	cands := pq.Candidates()
	out := make([]int, len(cands))
	minF := -1
	for i, c := range cands {
		_, f, err := h.Execute(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
		if minF < 0 || f < minF {
			minF = f
		}
	}
	return out, minF
}

// Convergence differential: on the adversarial skew fixture the collected
// statistics misestimate the static pick's fetch volume by >10x; the
// closed loop must switch to the realized-cheapest candidate within k
// executions and hold it — no plan flapping — over 1000 more. Run on the
// default handle ("unsharded": no WithShards option, P = 1) and at P = 8
// (same contract through the sharded gather).
func TestFeedbackConvergence(t *testing.T) {
	for _, shards := range []int{0, 8} {
		name := "unsharded"
		if shards > 0 {
			name = fmt.Sprintf("P=%d", shards)
		}
		t.Run(name, func(t *testing.T) {
			sys, fx := feedbackSystem(t)
			db := fx.Generate()
			direct, err := sys.EvalDirect(NewUCQ(fx.Q), db)
			if err != nil {
				t.Fatal(err)
			}
			var h Handle
			if shards > 0 {
				h, err = sys.Open(db, WithShards(shards))
			} else {
				h, err = sys.Open(db)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
			if err != nil {
				t.Fatal(err)
			}
			fetches, minF := realizedFetches(t, pq, h)

			// The fixture must be adversarial: the open-loop pick under the
			// handle's collected statistics realizes >= 10x the frontier's
			// cheapest fetch volume.
			st0, _ := h.Stats()
			openLoop, _ := pq.best(st0, nil)
			if fetches[openLoop] < 10*max(1, minF) {
				t.Fatalf("fixture not adversarial: open-loop pick fetches %d, frontier min %d",
					fetches[openLoop], minF)
			}

			// Converge within k executions.
			const k = 8
			last := -1
			for i := 0; i < k; i++ {
				rows, f, err := pq.Execute(h)
				if err != nil {
					t.Fatal(err)
				}
				if !cq.RowsEqual(rows, direct) {
					t.Fatalf("exec %d: answers diverge from direct evaluation", i)
				}
				last = f
			}
			bound := 12 * max(1, minF) / 10 // the 1.2x gate
			if last > bound {
				t.Fatalf("no convergence: execution %d fetched %d, frontier min %d (bound %d)",
					k, last, minF, bound)
			}
			st, ok := pq.SelectionStats(h)
			if !ok {
				t.Fatal("no selection state after executing")
			}
			if st.Switches < 1 {
				t.Fatal("feedback never re-ranked away from the misestimated pick")
			}
			if st.Samples < k {
				t.Fatalf("observations not absorbed: %d samples after %d executions", st.Samples, k)
			}

			// Stability: 1000 further executions, every one cheap, zero
			// additional switches (exploration of the near-tied twin
			// candidate is allowed; switching is not).
			swaps := st.Switches
			for i := 0; i < 1000; i++ {
				_, f, err := pq.Execute(h)
				if err != nil {
					t.Fatal(err)
				}
				if f > bound {
					t.Fatalf("post-convergence execution %d fetched %d (> %d): plan flapped", i, f, bound)
				}
			}
			st2, _ := pq.SelectionStats(h)
			if st2.Switches != swaps {
				t.Fatalf("selection oscillated: %d -> %d switches over 1000 stable executions",
					swaps, st2.Switches)
			}
		})
	}
}

// TestSelectionIndependentOfShardCount: statistics are a property of D,
// so plan choice must not depend on P. On the PlanPick, PlanFeedback
// (whose closed loop switches plans), template-binding (PlanFeedback's hot
// and cold bindings of one template) and Sharded point-query fixtures, the
// published statistics, the candidate they rank first, and the candidate
// SelectionStats reports after a warm-up must be the same at P = 1, 2, 4
// and 8.
func TestSelectionIndependentOfShardCount(t *testing.T) {
	pp := workload.NewPlanPick(5, 100_000)
	fb := workload.NewPlanFeedback()
	sh := workload.NewSharded(8)
	binding := func(a string) *UCQ {
		return NewUCQ(NewCQ([]Term{Var("c")}, []Atom{NewAtom("R", Cst(a), Cst("j"), Var("c"))}))
	}
	for _, tc := range []struct {
		name    string
		schema  *Schema
		access  *AccessSchema
		views   map[string]*UCQ
		m       int
		db      func() *Database
		queries []*UCQ
	}{
		{"planpick", pp.Schema, pp.Access, pp.Views(), pp.M,
			func() *Database { return pp.Generate(4000, 4, 11) }, []*UCQ{NewUCQ(pp.Q)}},
		{"feedback", fb.Schema, fb.Access, fb.Views(), fb.M, fb.Generate, []*UCQ{NewUCQ(fb.Q)}},
		{"template", fb.Schema, fb.Access, fb.Views(), fb.M, fb.Generate, []*UCQ{binding("k"), binding("j0")}},
		{"sharded", sh.Schema, sh.Access, sh.Views(), sh.M,
			func() *Database { return sh.Generate(2000, 6, 5) }, []*UCQ{NewUCQ(sh.Query(sh.UID(7)))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.schema, tc.access, tc.views, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			var wantStats *plan.Stats
			for _, p := range []int{1, 2, 4, 8} {
				h, err := sys.Open(tc.db(), WithShards(p))
				if err != nil {
					t.Fatal(err)
				}
				st, _ := h.Stats()
				if wantStats == nil {
					wantStats = st
				} else if !reflect.DeepEqual(st, wantStats) {
					t.Fatalf("P = %d publishes statistics\n%+v\nP = 1\n%+v", p, *st, *wantStats)
				}
				var got []string
				for _, q := range tc.queries {
					pq, err := sys.Prepare(q, LangCQ)
					if err != nil {
						t.Fatal(err)
					}
					ranked, _ := pq.best(st, nil)
					for i := 0; i < 8; i++ {
						if _, _, err := pq.Execute(h); err != nil {
							t.Fatal(err)
						}
					}
					sel, _ := pq.SelectionStats(h)
					got = append(got, fmt.Sprintf("ranked %d, selected %d", ranked, sel.Selected))
				}
				h.Close()
				if want == nil {
					want = got
					t.Logf("P = 1: %v", got)
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("P = %d picks %v, P = 1 picks %v", p, got, want)
				}
			}
		})
	}
}

// Drift stickiness: churn publishes new — still skew-blind — statistics,
// under which the next pick prices its incumbent again. The observation
// overlay must survive them: the corrected selection stays corrected.
func TestFeedbackStickyUnderStatsDrift(t *testing.T) {
	sys, fx := feedbackSystem(t)
	h, err := sys.Open(fx.Generate())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := pq.Execute(h); err != nil {
			t.Fatal(err)
		}
	}
	st0, ok := pq.SelectionStats(h)
	if !ok || st0.Switches < 1 {
		t.Fatalf("fixture must converge before the drift: %+v (%v)", st0, ok)
	}
	if _, err := h.ApplyDelta(fx.ChurnBatch(0, 4000), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, f, err := pq.Execute(h)
		if err != nil {
			t.Fatal(err)
		}
		if f > 2*fx.JGroup {
			t.Fatalf("post-drift execution fetched %d: selection reverted to the misestimate", f)
		}
	}
	st1, _ := pq.SelectionStats(h)
	if st1.Selected != st0.Selected || st1.Switches != st0.Switches {
		t.Fatalf("drift moved the selection: %+v -> %+v", st0, st1)
	}
}

// TestStationaryChurnReranksNothing: churn that leaves the incumbent's
// price in range re-ranks nothing, however much of D it rewrites. After
// convergence on the PlanFeedback fixture, batches of fresh rows, each
// followed by its inverse, rewrite more than |D| in all while every epoch
// publishes new statistics; the executions between them, fewer than
// exploreEvery, must leave the re-rank counter and the selection as they
// were.
func TestStationaryChurnReranksNothing(t *testing.T) {
	sys, fx := feedbackSystem(t)
	h, err := sys.Open(fx.Generate())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := pq.Execute(h); err != nil {
			t.Fatal(err)
		}
	}
	st0, _ := pq.SelectionStats(h)
	if st0.Switches < 1 {
		t.Fatalf("fixture must converge before the churn: %+v", st0)
	}
	reranks := func() int64 { return h.Metrics().Counters["repro_plan_rerank_total"] }
	r0, size, churned := reranks(), h.Size(), 0
	for round := 0; churned <= size; round++ {
		batch := fx.ChurnBatch(round, 1000)
		for _, b := range [][2][]Op{{batch, nil}, {nil, batch}} {
			ds, err := h.ApplyDelta(b[0], b[1])
			if err != nil {
				t.Fatal(err)
			}
			churned += ds.Inserted + ds.Deleted
			if _, _, err := pq.Execute(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	st1, _ := pq.SelectionStats(h)
	if st1.Executions >= exploreEvery {
		t.Fatalf("fixture: %d executions reach the exploration budget", st1.Executions)
	}
	if got := reranks(); got != r0 || st1.Selected != st0.Selected {
		t.Fatalf("%d churned ops over |D| = %d re-ranked %d times, selection %d -> %d",
			churned, size, got-r0, st0.Selected, st1.Selected)
	}
}

// TestFeedbackSkipIsExact: a pick prices the incumbent again only when
// the handle published other statistics, and feedback only when a mean of
// its overlay moved, another candidate ran, or the statistics moved; both
// must decide exactly as a loop that always re-prices. On the PlanFeedback
// fixture, with churn batches between the executions (new statistics with
// every epoch) and every 64th execution exploring a runner-up, each
// execution must re-rank exactly when the always-re-pricing rule says so:
// when the incumbent's price under the serving statistics diverged from
// its ranked cost before the run was absorbed (the pick) or after it (the
// feedback), or the run explored. Afterwards the incumbent's fresh overlaid
// estimate under the handle's current statistics must not have diverged
// from the cost its selection holds.
func TestFeedbackSkipIsExact(t *testing.T) {
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			sys, fx := feedbackSystem(t)
			h, err := sys.Open(fx.Generate(), WithShards(p))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
			if err != nil {
				t.Fatal(err)
			}
			id := h.handleID()
			reranks := func() int64 { return h.Metrics().Counters["repro_plan_rerank_total"] }
			moved := 0 // executions served under statistics their incumbent was not priced with
			for i := 0; i < 300; i++ {
				if i%25 == 24 {
					size := 64
					if i%100 == 99 {
						size = 4000
					}
					if _, err := h.ApplyDelta(fx.ChurnBatch(i, size), nil); err != nil {
						t.Fatal(err)
					}
				}
				st, _ := h.Stats()
				pq.mu.Lock()
				pre, ok := pq.sels[id]
				var was selState
				var atPick bool
				if ok {
					was = *pre
					atPick = diverged(pq.progs[was.sel].Estimate(st, pre.obs).Score(), was.cost.Score())
					if was.st != st {
						moved++
					}
				}
				pq.mu.Unlock()
				r0 := reranks()
				if _, _, err := pq.Execute(h); err != nil {
					t.Fatal(err)
				}
				pq.mu.Lock()
				s := pq.sels[id]
				fresh, held := pq.progs[s.sel].Estimate(st, s.obs), s.cost
				want := ok && (atPick || s.probes > was.probes ||
					diverged(pq.progs[was.sel].Estimate(st, s.obs).Score(), was.cost.Score()))
				pq.mu.Unlock()
				if got := reranks() > r0; ok && got != want {
					t.Fatalf("execution %d: re-ranked %v, the always-re-pricing rule says %v", i, got, want)
				}
				if diverged(fresh.Score(), held.Score()) {
					t.Fatalf("execution %d: incumbent %d re-estimates at %v, its selection holds %v",
						i, s.sel, fresh.Score(), held.Score())
				}
			}
			if moved == 0 {
				t.Fatal("fixture: no execution met statistics its incumbent was not priced with")
			}
			if st, _ := pq.SelectionStats(h); st.Switches < 1 || st.Explorations < 1 {
				t.Fatalf("fixture: the loop must switch and explore: %+v", st)
			}

			// A run that moves no mean, fed back under statistics the
			// incumbent was not last priced with, prices it again.
			st, _ := h.Stats()
			pq.mu.Lock()
			sel := pq.sels[id].sel
			pq.mu.Unlock()
			rows, x, err := h.executeObserved(pq.cands[sel].Plan, pq.progs[sel], traceCtx{})
			if err != nil {
				t.Fatal(err)
			}
			slots := slices.Clone(x.Slots())
			x.Release()
			other := *st
			for _, st := range []*plan.Stats{st, &other} {
				pq.feedback(id, st, sel, slots, len(rows), nil)
				pq.mu.Lock()
				priced := pq.sels[id].st
				pq.mu.Unlock()
				if priced != st {
					t.Fatal("feedback under new statistics skipped the incumbent's re-estimate")
				}
			}
		})
	}
}

// Observed statistics are NOT durable: they live with the handle, Close
// clears them, and a WAL restart comes up estimate-driven — the first
// execution pays the misestimate once, then re-converges. This pins the
// documented reset-on-restart behavior.
func TestFeedbackResetOnWALRestart(t *testing.T) {
	sys, fx := feedbackSystem(t)
	dir := t.TempDir()
	h, err := sys.Open(fx.Generate(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := pq.Execute(h); err != nil {
			t.Fatal(err)
		}
	}
	if st, ok := pq.SelectionStats(h); !ok || st.Samples < 4 || st.Switches < 1 {
		t.Fatalf("must converge before the restart: %+v (%v)", st, ok)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := pq.SelectionStats(h); ok {
		t.Fatal("Close must clear the handle's selection state")
	}

	h2, err := sys.Open(NewDatabase(fx.Schema), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if _, ok := pq.SelectionStats(h2); ok {
		t.Fatal("restarted handle must start with no observed statistics")
	}
	// First execution is estimate-driven again (pays the hot group), the
	// second has the observation and is cheap: reset, then re-converge.
	_, f1, err := pq.Execute(h2)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := pq.Execute(h2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 10*max(1, f2) {
		t.Fatalf("restart did not reset observed stats: first exec fetched %d, second %d", f1, f2)
	}
	if st, ok := pq.SelectionStats(h2); !ok || st.Samples < 2 {
		t.Fatalf("re-convergence must accumulate fresh observations: %+v (%v)", st, ok)
	}
}

// The per-handle selection cache must never evict the handle being served
// (the old arbitrary-eviction could drop the current handle's entry —
// discarding the feedback the call was about to add), and Close must
// clear a dead handle's slot.
func TestSelectionEvictionSparesServingHandle(t *testing.T) {
	sys, pp := planPickSystem(t)
	pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	var handles []Handle
	for i := 0; i < maxLiveSelections+3; i++ {
		h, err := sys.Open(pp.Generate(300, 3, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		handles = append(handles, h)
		if _, _, err := pq.Execute(h); err != nil {
			t.Fatal(err)
		}
		if _, ok := pq.SelectionStats(h); !ok {
			t.Fatalf("handle %d: its own fresh selection entry was evicted", i)
		}
	}
	pq.mu.Lock()
	n := len(pq.sels)
	pq.mu.Unlock()
	if n > maxLiveSelections {
		t.Fatalf("selection cache exceeded its bound: %d > %d", n, maxLiveSelections)
	}
	last := handles[len(handles)-1]
	if err := last.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := pq.SelectionStats(last); ok {
		t.Fatal("Close must clear the closed handle's selection slot")
	}
}

// TestRerankPricesEachCandidateOnce: one re-rank prices every candidate
// exactly once. The incumbent's fresh price, which decided that a re-rank
// is due, is the one the frontier scan ranks it at — whether feedback
// forced the re-rank or a pick under moved statistics did. A pick under
// other statistics that leave the incumbent's price in range prices the
// incumbent alone and re-ranks nothing.
func TestRerankPricesEachCandidateOnce(t *testing.T) {
	sys, fx := feedbackSystem(t)
	h, err := sys.Open(fx.Generate())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pq, err := sys.Prepare(NewUCQ(fx.Q), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.progs) < 2 {
		t.Fatalf("fixture: %d candidates, a re-rank needs two", len(pq.progs))
	}
	if _, _, err := pq.Execute(h); err != nil {
		t.Fatal(err)
	}
	priced := 0
	defer func(e func(*plan.Program, *plan.Stats, *plan.ObservedStats) plan.Cost) { estimate = e }(estimate)
	estimate = func(p *plan.Program, st *plan.Stats, obs *plan.ObservedStats) plan.Cost {
		priced++
		return p.Estimate(st, obs)
	}
	reranks := func() int64 { return h.Metrics().Counters["repro_plan_rerank_total"] }

	// Feedback from a run of a runner-up always re-ranks.
	id := h.handleID()
	st, _ := h.Stats()
	pq.mu.Lock()
	other := (pq.sels[id].sel + 1) % len(pq.progs)
	pq.mu.Unlock()
	rows, x, err := h.executeObserved(pq.cands[other].Plan, pq.progs[other], traceCtx{})
	if err != nil {
		t.Fatal(err)
	}
	slots := slices.Clone(x.Slots())
	x.Release()
	r0 := reranks()
	priced = 0
	pq.feedback(id, st, other, slots, len(rows), h.metricsCore())
	if reranks() != r0+1 || priced != len(pq.progs) {
		t.Fatalf("feedback re-rank: %d re-ranks, %d estimates for %d candidates", reranks()-r0, priced, len(pq.progs))
	}

	// A fresh selection (no overlay yet) picks under st. Statistics equal
	// to st but published anew price its incumbent once and keep it; the
	// database grown 1000-fold moves the incumbent's price past the
	// divergence threshold, and that pick re-ranks.
	const fresh = 1 << 62 // an id no handle holds
	pq.pickPlan(fresh, st, nil)
	same, grown := *st, *st
	grown.RelRows = map[string]int{}
	for rel, n := range st.RelRows {
		grown.RelRows[rel] = 1000 * n
	}
	for _, tc := range []struct {
		name    string
		st      *plan.Stats
		reranks int64
		priced  int
	}{
		{"equal statistics", &same, 0, 1},
		{"grown statistics", &grown, 1, len(pq.progs)},
	} {
		r0, priced = reranks(), 0
		pq.pickPlan(fresh, tc.st, h.metricsCore())
		if reranks()-r0 != tc.reranks || priced != tc.priced {
			t.Fatalf("pick under %s: %d re-ranks, %d estimates for %d candidates; want %d and %d",
				tc.name, reranks()-r0, priced, len(pq.progs), tc.reranks, tc.priced)
		}
	}
}
