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

// Drift stickiness: a statistics rebuild (churn past the drift threshold)
// bumps the stats version and used to reset selection to the fresh — still
// skew-blind — estimates. The observation overlay must survive the
// rebuild: the corrected selection stays corrected.
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
	_, ver0 := h.Stats()
	ds, err := h.ApplyDelta(fx.ChurnBatch(0, 4000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.StatsRefreshed {
		t.Fatal("churn batch must trip the drift rebuild")
	}
	if _, ver1 := h.Stats(); ver1 == ver0 {
		t.Fatal("stats version must change on rebuild")
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
		t.Fatalf("drift rebuild moved the selection: %+v -> %+v", st0, st1)
	}
}

// TestFeedbackSkipIsExact: feedback prices the incumbent again only when
// a mean of its overlay moved, another candidate ran, or the handle
// published other statistics, and it must decide exactly as a feedback
// that always re-prices. On the PlanFeedback fixture, with churn batches
// between the executions (a new Stats with every epoch, a new version on
// a rebuild) and every 64th execution exploring a runner-up, each
// execution that kept its statistics version must re-rank exactly when
// the always-re-pricing rule says so, and afterwards the incumbent's
// fresh overlaid estimate under the handle's current statistics must not
// have diverged from the cost its selection holds.
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
			_, ver0 := h.Stats()
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
				st, ver := h.Stats()
				pq.mu.Lock()
				pre, ok := pq.sels[id]
				var was selState
				if ok {
					was = *pre
				}
				pq.mu.Unlock()
				r0 := reranks()
				if _, _, err := pq.Execute(h); err != nil {
					t.Fatal(err)
				}
				pq.mu.Lock()
				s := pq.sels[id]
				fresh, held := pq.progs[s.sel].Estimate(st, s.obs), s.cost
				want := ok && (s.probes > was.probes ||
					diverged(pq.progs[was.sel].Estimate(st, s.obs).Score(), was.cost.Score()))
				pq.mu.Unlock()
				if got := reranks() > r0; ok && was.ver == ver && got != want {
					t.Fatalf("execution %d: re-ranked %v, the always-re-pricing rule says %v", i, got, want)
				}
				if diverged(fresh.Score(), held.Score()) {
					t.Fatalf("execution %d: incumbent %d re-estimates at %v, its selection holds %v",
						i, s.sel, fresh.Score(), held.Score())
				}
			}
			if _, ver := h.Stats(); ver == ver0 {
				t.Fatal("fixture: the churn never bumped the statistics version")
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
// forced the re-rank or a new statistics version did.
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
	st, ver := h.Stats()
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

	// So does the first pick under a new statistics version.
	priced = 0
	pq.pickPlan(id, st, ver+1, h.metricsCore())
	if reranks() != r0+2 || priced != len(pq.progs) {
		t.Fatalf("version re-rank: %d re-ranks, %d estimates for %d candidates", reranks()-r0-1, priced, len(pq.progs))
	}
}
