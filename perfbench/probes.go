package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/plan"
)

// probeRounds is how many rounds the layer probe pass makes; each round
// calls every probed layer once, interleaved, so drift during the pass
// affects all layers alike.
const probeRounds = 400

// probeBatches is how many churn batches a serving workload's write probe
// applies: more than the 256-batch checkpoint interval, so the probe
// covers a periodic checkpoint and a statistics rebuild.
const probeBatches = 300

// fetchProbe is one Snapshot.Fetch call: a constraint and its X-value.
type fetchProbe struct {
	c    *repro.Constraint
	xval repro.Tuple
}

// execTarget is a plan the workload serves and the fetches one execution
// of it makes.
type execTarget struct {
	plan    repro.Plan
	fetches []fetchProbe
}

// layerTarget is what the layer probes call into, built from a workload's
// state after its timed loop.
type layerTarget struct {
	sys *repro.System
	h   repro.Handle // the workload's handle
	// flat is a P = 1 handle over the same data: h itself when h is
	// unsharded. Plan and fetch timings on flat exclude shard routing.
	flat    repro.Handle
	execs   []execTarget
	pool    []*repro.PreparedQuery
	queries []*repro.UCQ
	// viewRows is the number of view rows one execution of the served
	// plan scans (the mean over the pool's plans).
	viewRows float64
	// loop holds the handle's counters right after the timed loop.
	loop   repro.Metrics
	writes writeSource
}

// writeSource is where the write-path metrics come from: the batches a
// durable handle applied, and the handle's counters after them.
type writeSource struct {
	deltas []repro.DeltaStats
	met    repro.Metrics
	lc     repro.LifecycleStats
}

// writeProbe applies pre-generated churn batches to a durable copy of a
// serving workload's database. Serving workloads never write, so their
// traced runs take the write-path metrics from this probe; write_churn
// takes them from its own timed loop.
type writeProbe struct {
	dir       string
	base      *repro.Database
	ins, dels [][]repro.Op
	opts      []repro.OpenOption
}

func newWriteProbe(dir string, base *repro.Database, batch func() ([]repro.Op, []repro.Op), opts ...repro.OpenOption) *writeProbe {
	p := &writeProbe{dir: filepath.Join(dir, "probe-wal"), base: base, opts: opts}
	for i := 0; i < probeBatches; i++ {
		ins, dels := batch()
		p.ins, p.dels = append(p.ins, ins), append(p.dels, dels)
	}
	return p
}

func (p *writeProbe) run(sys *repro.System) (writeSource, error) {
	var ws writeSource
	if err := os.RemoveAll(p.dir); err != nil {
		return ws, err
	}
	h, err := sys.Open(p.base.Clone(), append(slices.Clone(p.opts), repro.WithDurability(p.dir))...)
	if err != nil {
		return ws, fmt.Errorf("write probe: %w", err)
	}
	defer h.Close()
	for i := range p.ins {
		st, err := h.ApplyDelta(p.ins[i], p.dels[i])
		if err != nil {
			return ws, fmt.Errorf("write probe batch %d: %w", i, err)
		}
		ws.deltas = append(ws.deltas, st)
	}
	ws.met, ws.lc = h.Metrics(), h.Lifecycle()
	return ws, nil
}

// viewRowsOf counts the rows of the views a plan scans, over h's current
// extents.
func viewRowsOf(p repro.Plan, h repro.Handle) int {
	var views map[string][][]string
	n := 0
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if v, ok := x.(*plan.View); ok {
			if views == nil {
				views = h.Views()
			}
			n += len(views[v.Name])
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(p)
	return n
}

// selectedPlan is the candidate the closed-loop selection serves h with.
func selectedPlan(pq *repro.PreparedQuery, h repro.Handle) repro.Plan {
	sel, _ := pq.SelectionStats(h)
	return pq.Candidates()[sel.Selected]
}

// probeLayers runs the layer probe pass: probeRounds rounds, each calling
// every probed layer once inside spans under one probe span.
func probeLayers(lt *layerTarget, tr *tracer) error {
	st, _ := lt.h.Stats()
	fetchAll := func(h repro.Handle, name spanName, fs []fetchProbe, parent int64) error {
		s := h.Snapshot()
		defer s.Close()
		for _, f := range fs {
			var err error
			timeCall(tr, name, 0, parent, func() { _, err = s.Fetch(f.c, f.xval) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	for r := 0; r < probeRounds; r++ {
		ref := tr.begin(spProbe, int64(r), 0)
		parent := ref.id
		ex := lt.execs[r%len(lt.execs)]
		// The same calls on h and on flat, in alternating order: on P = 1
		// workloads h is flat, and the second call finds warmer caches.
		type call struct {
			exec, fetch spanName
			h           repro.Handle
		}
		calls := []call{{spShardExec, spShardFetch, lt.h}, {spHandleExec, spFetch, lt.flat}}
		if r%2 == 1 {
			calls[0], calls[1] = calls[1], calls[0]
		}
		var err error
		for _, c := range calls {
			timeCall(tr, c.exec, 0, parent, func() { _, _, err = c.h.Execute(ex.plan) })
			if err != nil {
				return err
			}
		}
		timeCall(tr, spPin, 0, parent, func() { lt.h.Snapshot().Close() })
		for _, c := range calls {
			if err := fetchAll(c.h, c.fetch, ex.fetches, parent); err != nil {
				return err
			}
		}

		j := r % len(lt.pool)
		pq, q := lt.pool[j], lt.queries[j]
		timeCall(tr, spPreparedExec, 0, parent, func() { _, _, err = pq.Execute(lt.h) })
		if err != nil {
			return err
		}
		sel := selectedPlan(pq, lt.h)
		timeCall(tr, spSelectedExec, 0, parent, func() { _, _, err = lt.h.Execute(sel) })
		if err != nil {
			return err
		}
		timeCall(tr, spCanon, 0, parent, func() { plan.QueryKey(q) })
		cands := pq.Candidates()
		timeCall(tr, spRank, 0, parent, func() { plan.Best(cands, st) })
		timeCall(tr, spPrepareHit, 0, parent, func() { _, err = lt.sys.Prepare(q, repro.LangCQ) })
		if err != nil {
			return err
		}
		tr.end(ref)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the traced run's spans
// and the engine's counters.
func layerMetrics(lt *layerTarget, setup, probe *tracer) map[string]metric {
	m := map[string]metric{}
	us := func(name string, v float64) { m[name] = metric{v, "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	execUS := median(probe.durationsUS(spHandleExec))
	fetchUS := median(probe.sumByParentUS(spFetch))
	us("plan.exec_us", execUS)
	us("instance.fetch_us", fetchUS)
	us("plan.exec_self_us", execUS-fetchUS)
	count("plan.view_rows_per_op", lt.viewRows)

	us("prepare.select_us", median(probe.childGapsUS(spPreparedExec, spSelectedExec)))
	us("shard.exec_us", median(probe.durationsUS(spShardExec)))
	us("shard.fetch_us", median(probe.sumByParentUS(spShardFetch)))
	us("epoch.pin_us", median(probe.durationsUS(spPin)))

	cold := append(setup.durationsUS(spPrepareCold), probe.durationsUS(spPrepareCold)...)
	m["prepare.search_ms"] = metric{median(cold) / 1e3, "ms"}
	cands := 0
	for _, pq := range lt.pool {
		cands += len(pq.Candidates())
	}
	count("vbrp.candidates", float64(cands))
	us("plan.canon_us", median(probe.durationsUS(spCanon)))
	us("plan.rank_us", median(probe.durationsUS(spRank)))
	us("prepare.hit_us", median(probe.durationsUS(spPrepareHit)))

	met := lt.loop
	count("prepare.reranks", float64(met.Counters["repro_plan_rerank_total"]))
	count("prepare.switches", float64(met.Counters["repro_plan_switch_total"]))
	count("prepare.explorations", float64(met.Counters["repro_plan_explore_total"]))

	ws := lt.writes
	var excl, rows, views []float64
	refreshes := 0
	for _, d := range ws.deltas {
		excl = append(excl, float64(d.MaxExclusive.Nanoseconds())/1e3)
		rows = append(rows, float64(d.Inserted+d.Deleted))
		views = append(views, float64(d.ViewsChanged))
		if d.StatsRefreshed {
			refreshes++
		}
	}
	us("apply.exclusive_us", median(excl))
	count("apply.rows_per_batch", mean(rows))
	count("eval.views_changed_per_batch", mean(views))
	count("stats.refreshes", float64(refreshes))
	histMean := func(name string) time.Duration {
		h := ws.met.Histograms[name]
		if h.Count == 0 {
			return 0
		}
		return h.Sum / time.Duration(h.Count)
	}
	us("wal.append_us", float64(histMean("repro_wal_append_seconds").Nanoseconds())/1e3)
	us("wal.fsync_us", float64(histMean("repro_wal_fsync_seconds").Nanoseconds())/1e3)
	m["wal.checkpoint_ms"] = metric{float64(histMean("repro_wal_checkpoint_seconds").Nanoseconds()) / 1e6, "ms"}
	count("wal.checkpoints", float64(ws.met.Counters["repro_wal_checkpoint_total"]))
	count("lifecycle.compaction_passes", float64(ws.lc.CompactionPasses))
	count("lifecycle.repacked_index_groups", float64(ws.lc.RepackedIndexGroups))
	count("lifecycle.reclaimed_epochs", float64(ws.lc.ReclaimedEpochs))
	return m
}
