//go:build gates

package repro

// The timing and heap-ratio gates: engine properties that show only as a
// wall-clock or live-heap ratio, so they stay out of the tier-1 suite and
// away from the race detector. They run sequentially in one non-race
// process (`go test -tags gates -count=1 -v .`); each logs its measured
// value next to its threshold on a "gate:" line. EXPERIMENTS.md explains
// each fixture and estimator.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/workload"
)

// repeat calls f back-to-back on a new goroutine of wg until done is
// closed, counting the calls that succeeded in n; an error fails t and
// ends the loop.
func repeat(t *testing.T, wg *sync.WaitGroup, done <-chan struct{}, n *atomic.Int64, f func() error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := f(); err != nil {
				t.Error(err)
				return
			}
			n.Add(1)
		}
	}()
}

// applyBatch returns a call that applies one batch of n ops from batch.
func applyBatch(h Handle, batch func(int) ([]Op, []Op), n int) func() error {
	return func() error {
		ins, del := batch(n)
		_, err := h.ApplyDelta(ins, del)
		return err
	}
}

// TestGateShardScaling runs the account/transaction fixture at P = 1, 2,
// 4, 8 shards: batched-delta throughput, the per-batch maintenance window
// (DeltaStats.MaxExclusive, median over batches) and point-read serving
// throughput while a writer churns back-to-back. The window cut at P = 8
// must be ≥ 2x at any GOMAXPROCS; with GOMAXPROCS ≥ 4 delta throughput
// must also be ≥ 2x and serving must not regress below 0.6x. Per-query
// fetches stay ≤ NTxn at every P and sampled answers equal recomputation.
func TestGateShardScaling(t *testing.T) {
	const (
		users      = 25_000
		txnsPer    = 4
		nTxn       = 8
		batchOps   = 2_000
		batches    = 16
		serveMs    = 900
		readers    = 4
		queryPool  = 24
		writeBatch = 16_000
	)
	w := workload.NewSharded(nTxn)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		t.Fatal(err)
	}
	// One prepared handle per pooled uid, shared by every shard count.
	pqs := make([]*PreparedQuery, queryPool)
	for i := range pqs {
		if pqs[i], err = sys.Prepare(NewUCQ(w.Query(w.UID(i*97))), LangCQ); err != nil {
			t.Fatal(err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	t.Logf("|D| = %d tuples, delta batches of %d ops, %d readers vs %d-op writer batches, GOMAXPROCS=%d",
		users*(1+txnsPer), batchOps, readers, writeBatch, procs)

	var deltaBase, serveBase, deltaRatio, serveRatio, exclRatio float64
	var exclBase time.Duration
	for _, p := range []int{1, 2, 4, 8} {
		db := w.Generate(users, txnsPer, 7)
		mirror := db.Clone()
		h, err := sys.Open(db, WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		ch := w.NewChurn(mirror, 11)

		// Correctness preflight: bounded, shard-count-independent fetches
		// and answers equal to recomputation.
		fetchedPerQuery := 0
		for i, pq := range pqs {
			rows, fetched, err := pq.Execute(h)
			if err != nil {
				t.Fatal(err)
			}
			if fetched > nTxn {
				t.Fatalf("P=%d: fetched %d > NTxn=%d — bounded plan lost its bound", p, fetched, nTxn)
			}
			fetchedPerQuery += fetched
			if i%6 == 0 {
				direct, err := sys.EvalDirect(NewUCQ(w.Query(w.UID(i*97))), mirror)
				if err != nil {
					t.Fatal(err)
				}
				if !cq.RowsEqual(rows, direct) {
					t.Fatalf("P=%d: sharded answers diverge from recomputation", p)
				}
			}
		}

		// Phase A: batched-delta throughput; the warm-up batch pays the
		// lazy one-time builds.
		ins, del := ch.Batch(batchOps)
		if _, err := h.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		applied := 0
		excls := make([]time.Duration, 0, batches)
		t0 := time.Now()
		for b := 0; b < batches; b++ {
			ins, del := ch.Batch(batchOps)
			st, err := h.ApplyDelta(ins, del)
			if err != nil {
				t.Fatal(err)
			}
			excls = append(excls, st.MaxExclusive)
			applied += len(ins) + len(del)
		}
		opsPerSec := float64(applied) / time.Since(t0).Seconds()
		// Median: the typical window, robust against a GC pause landing
		// inside one shard's section.
		sort.Slice(excls, func(i, j int) bool { return excls[i] < excls[j] })
		excl := excls[len(excls)/2]

		// Phase B: point-read serving while a writer churns back-to-back.
		runtime.GC()
		var served, written atomic.Int64
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			i := r * 5
			repeat(t, &wg, done, &served, func() error {
				_, _, err := pqs[i%len(pqs)].Execute(h)
				i++
				return err
			})
		}
		repeat(t, &wg, done, &written, applyBatch(h, ch.Batch, writeBatch))
		t0 = time.Now()
		time.Sleep(serveMs * time.Millisecond)
		// Wall stops when the readers do: the writer's in-flight batch
		// drains afterwards and must not pad the qps denominator (it
		// drains faster at higher shard counts, biasing the 8-vs-1 ratio).
		wall := time.Since(t0).Seconds()
		close(done)
		wg.Wait()
		qps := float64(served.Load()) / wall
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}

		if p == 1 {
			deltaBase, serveBase, exclBase = opsPerSec, qps, excl
		}
		dR, sR, eR := opsPerSec/deltaBase, qps/serveBase, float64(exclBase)/float64(excl)
		if p == 8 {
			deltaRatio, serveRatio, exclRatio = dR, sR, eR
		}
		t.Logf("P=%d: delta %.0f ops/s (%.2fx), maintenance window median %s (cut %.1fx), serving %.0f q/s (%.2fx), fetched/query %d",
			p, opsPerSec, dR, excl.Round(time.Microsecond), eR, qps, sR, fetchedPerQuery/len(pqs))
	}

	t.Logf("gate: maintenance window cut at P=8 %.2fx >= 2x", exclRatio)
	if exclRatio < 2 {
		t.Errorf("per-shard maintenance window at 8 shards shrank only %.2fx vs the single-shard baseline (< 2x)", exclRatio)
	}
	if procs < 4 {
		t.Logf("GOMAXPROCS=%d: the throughput gates need >= 4 procs and were skipped (delta %.2fx, serving %.2fx at P=8)",
			procs, deltaRatio, serveRatio)
		return
	}
	t.Logf("gate: delta throughput at P=8 %.2fx >= 2x", deltaRatio)
	t.Logf("gate: serving throughput at P=8 %.2fx >= 0.6x", serveRatio)
	if deltaRatio < 2 {
		t.Errorf("delta throughput at 8 shards is %.2fx the single-shard baseline (< 2x with %d procs)", deltaRatio, procs)
	}
	if serveRatio < 0.6 {
		t.Errorf("serving throughput at 8 shards regressed to %.2fx the single-shard baseline (< 0.6x with %d procs)", serveRatio, procs)
	}
}

// TestGateEpochReadLatency: a reader executes the Figure 1 plan idle and
// then while a writer churns back-to-back; readers never block behind
// ApplyDelta, so the p99 under churn must stay ≤ 3·max(idle p99, 250µs).
// Gated with GOMAXPROCS ≥ 2: the reader needs a core the writer is not
// using.
func TestGateEpochReadLatency(t *testing.T) {
	const (
		n        = 8000
		samples  = 4000
		batchOps = 1500
	)
	sys, m := movieSystemN0(t, 50)
	db := m.Generate(workload.MoviesParams{Persons: n, Movies: n, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
	size0 := db.Size()
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	xi0 := m.Fig1Plan()
	ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: 1})
	// Warm-up: lazy one-time builds plus one batch so steady state rules.
	ins, del := ch.Batch(batchOps)
	if _, err := h.ApplyDelta(ins, del); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Execute(xi0); err != nil {
		t.Fatal(err)
	}

	sample := func() []time.Duration {
		lat := make([]time.Duration, samples)
		for i := range lat {
			t0 := time.Now()
			if _, _, err := h.Execute(xi0); err != nil {
				t.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}
	pct := func(lat []time.Duration, p float64) time.Duration {
		return lat[min(len(lat)-1, int(p*float64(len(lat))))]
	}

	runtime.GC()
	idle := sample()
	// Churn phase: a writer applies batches back-to-back while the same
	// reader samples.
	var batches atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	repeat(t, &wg, done, &batches, applyBatch(h, ch.Batch, batchOps))
	runtime.GC()
	churn := sample()
	close(done)
	wg.Wait()

	idleP99, churnP99 := pct(idle, 0.99), pct(churn, 0.99)
	bound := 3 * max(idleP99, 250*time.Microsecond)
	t.Logf("|D| = %d, %d samples per phase, %d batches of %d ops applied while sampling, GOMAXPROCS=%d",
		size0, samples, batches.Load(), batchOps, runtime.GOMAXPROCS(0))
	t.Logf("idle p50 %s p99 %s; under churn p50 %s p99 %s",
		pct(idle, 0.5).Round(time.Microsecond), idleP99.Round(time.Microsecond),
		pct(churn, 0.5).Round(time.Microsecond), churnP99.Round(time.Microsecond))
	t.Logf("gate: churn p99 %s <= 3 x max(idle p99, 250µs) = %s",
		churnP99.Round(time.Microsecond), bound.Round(time.Microsecond))
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS=1: the latency gate needs the reader and writer on separate procs")
	}
	if batches.Load() == 0 {
		t.Fatal("the churn writer applied no batches while sampling — the gate measured nothing")
	}
	if churnP99 > bound {
		t.Fatalf("reader p99 under churn %s exceeds %s — epoch reads are stalling behind the writer", churnP99, bound)
	}
}

// TestGateRecoverRestart times sys.Open to a first served fetch three
// ways over one final state: a cold rebuild, log replay of a directory
// never cleanly closed, and a checkpointed restart of one that closed
// cleanly. At P = 1 the checkpointed restart must be ≥ 10x and the replay
// ≥ 1.5x faster than the cold rebuild; at P = 8, where the checkpointed
// extents are split across the shards, ≥ 5x and ≥ 1.5x. Both must replay
// the expected number of epochs and end with the cold rebuild's view
// extents.
func TestGateRecoverRestart(t *testing.T) {
	const (
		users    = 400
		txnsPer  = 48
		batches  = 40
		batchOps = 12
		ckptInt  = 16
	)
	w := workload.NewRecovery(2 * txnsPer)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards             int
		ckptMin, replayMin float64
	}{{1, 10, 1.5}, {8, 5, 1.5}} {
		t.Run(fmt.Sprintf("P=%d", tc.shards), func(t *testing.T) {
			db := w.Generate(users, txnsPer, 17)
			dirReplay, dirCkpt := t.TempDir(), t.TempDir()
			shards := WithShards(tc.shards)

			// Drive the identical deterministic stream into both durable
			// dirs and a plain database that becomes the cold-rebuild input.
			hReplay, err := sys.Open(db.Clone(), shards, WithDurability(dirReplay), WithCheckpointEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			hCkpt, err := sys.Open(db.Clone(), shards, WithDurability(dirCkpt), WithCheckpointEvery(ckptInt))
			if err != nil {
				t.Fatal(err)
			}
			final := db.Clone()
			ch := w.NewChurn(db, 5)
			for b := 0; b < batches; b++ {
				ins, del := ch.Batch(batchOps)
				sr, err := hReplay.ApplyDelta(ins, del)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := hCkpt.ApplyDelta(ins, del)
				if err != nil {
					t.Fatal(err)
				}
				if sr.Inserted != sc.Inserted || sr.Deleted != sc.Deleted {
					t.Fatalf("batch %d: the two durable handles applied %d+%d and %d+%d", b, sr.Inserted, sr.Deleted, sc.Inserted, sc.Deleted)
				}
				if _, err := final.ApplyDelta(ins, del); err != nil {
					t.Fatal(err)
				}
			}
			// hCkpt closes cleanly (final checkpoint); hReplay is abandoned
			// as a crash would leave it — every batch is in the journal,
			// none folded.
			if err := hCkpt.Close(); err != nil {
				t.Fatal(err)
			}

			timeToServe := func(db *Database, opts ...OpenOption) (Handle, time.Duration) {
				runtime.GC()
				t0 := time.Now()
				h, err := sys.Open(db, append([]OpenOption{shards}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := h.Snapshot().Fetch(w.Acct, Tuple{w.UID(3)})
				if err != nil || len(rows) == 0 {
					t.Fatalf("serving probe failed: %d rows, %v", len(rows), err)
				}
				return h, time.Since(t0)
			}
			hCold, coldD := timeToServe(final)
			defer hCold.Close()
			hR, replayD := timeToServe(NewDatabase(sys.Schema), WithDurability(dirReplay), WithCheckpointEvery(0))
			defer hR.Close()
			hC, ckptD := timeToServe(NewDatabase(sys.Schema), WithDurability(dirCkpt), WithCheckpointEvery(ckptInt))
			defer hC.Close()

			ri, ci := hR.(*Live).Recovery(), hC.(*Live).Recovery()
			if ri.ReplayedEpochs != batches {
				t.Fatalf("log-replay recovery replayed %d epochs, want %d", ri.ReplayedEpochs, batches)
			}
			if ci.ReplayedEpochs != 0 {
				t.Fatalf("checkpointed recovery replayed %d epochs, want 0 after a clean close", ci.ReplayedEpochs)
			}
			// Fast but wrong recovery is worthless; viewFingerprint sorts
			// the extents (enumeration and incremental arrival order rows
			// apart).
			coldViews := viewFingerprint(hCold.Views())
			if viewFingerprint(hR.Views()) != coldViews {
				t.Fatal("log-replay recovery diverged from the cold rebuild")
			}
			if viewFingerprint(hC.Views()) != coldViews {
				t.Fatal("checkpointed recovery diverged from the cold rebuild")
			}

			ckptX, replayX := float64(coldD)/float64(ckptD), float64(coldD)/float64(replayD)
			t.Logf("P = %d, |Dfinal| = %d; cold rebuild %s, log replay (%d epochs, %d ops) %s, checkpointed restart %s",
				tc.shards, final.Size(), coldD.Round(time.Microsecond), ri.ReplayedEpochs, ri.ReplayedOps,
				replayD.Round(time.Microsecond), ckptD.Round(time.Microsecond))
			t.Logf("gate: P = %d checkpointed restart %.1fx >= %gx cold", tc.shards, ckptX, tc.ckptMin)
			t.Logf("gate: P = %d log replay %.1fx >= %gx cold", tc.shards, replayX, tc.replayMin)
			if ckptX < tc.ckptMin {
				t.Errorf("checkpointed restart is only %.1fx faster than a cold rebuild (gate: >= %gx)", ckptX, tc.ckptMin)
			}
			if replayX < tc.replayMin {
				t.Errorf("log-replay recovery is only %.1fx faster than a cold rebuild (gate: >= %gx)", replayX, tc.replayMin)
			}
		})
	}
}

// TestGateChurnMemory: under closed-universe swap churn (|D| and the
// dictionary plateau by construction) with snapshots and At reads along
// the way, the maximal post-warm-up live heap must stay ≤ 1.5x the
// warm-up floor — over 10k batches at P = 1 and 2.5k at P = 4 — with no
// snapshot left pinned and some epoch reclaimed. TestChurnMemoryBounded
// is the smaller tier-1 regression.
func TestGateChurnMemory(t *testing.T) {
	const retain = 8
	for _, cfg := range []struct{ shards, batches int }{{1, 10000}, {4, 2500}} {
		t.Run(fmt.Sprintf("P=%d", cfg.shards), func(t *testing.T) {
			sys, m := movieSystemN0(t, 50)
			db := m.Generate(workload.MoviesParams{Persons: 4000, Movies: 4000, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
			// The generator clones its pools before Open: the handle
			// consumes the database.
			ch := workload.NewSwapChurn(m, db, workload.SwapChurnParams{Seed: 1})
			batch := db.Size() / 100
			h, err := sys.Open(db, WithRetainEpochs(retain), WithShards(cfg.shards))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			xi0 := m.Fig1Plan()

			apply := func() {
				ins, del := ch.Batch(batch)
				if _, err := h.ApplyDelta(ins, del); err != nil {
					t.Fatal(err)
				}
			}
			warmup := cfg.batches / 10
			for b := 0; b < warmup; b++ {
				apply()
			}
			floor := liveHeap()

			applied, steady := warmup, floor
			sampleEvery := max(1, cfg.batches/20)
			for b := warmup; b < cfg.batches; b++ {
				apply()
				applied++
				if b%16 == 0 {
					// Reader traffic: pin the current epoch, read, release.
					s := h.Snapshot()
					if _, _, err := s.Execute(xi0); err != nil {
						t.Fatal(err)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if b%64 == 0 && applied > retain {
					// Point-in-time traffic through the retention ring.
					s, err := h.At(uint64(applied) - retain/2)
					if err != nil {
						t.Fatal(err)
					}
					if s.Size() == 0 {
						t.Fatal("retained epoch serves an empty instance")
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if b%sampleEvery == 0 {
					steady = max(steady, liveHeap())
				}
			}
			steady = max(steady, liveHeap())
			ratio := float64(steady) / float64(floor)
			lc := h.Lifecycle()
			t.Logf("%d batches of %d ops: heap floor %.1f MB, steady %.1f MB, %d epochs reclaimed",
				cfg.batches, batch, float64(floor)/(1<<20), float64(steady)/(1<<20), lc.ReclaimedEpochs)
			t.Logf("gate: heap %.2fx <= 1.5x the warm-up floor (retain = %d epochs)", ratio, retain)
			if lc.LiveSnapshots != 0 {
				t.Fatalf("%d snapshots still pinned after the run (all were closed)", lc.LiveSnapshots)
			}
			if lc.ReclaimedEpochs == 0 {
				t.Fatal("no epoch was ever reclaimed — the retention ring is not releasing")
			}
			if ratio > 1.5 {
				t.Fatalf("steady-state heap is %.2fx the post-warm-up floor (gate: <= 1.5x) — epoch state is leaking", ratio)
			}
		})
	}
}

// TestGateMetricsOverhead: over 9 rounds of 800 Figure 1 plan executions
// each on an instrumented handle and a WithoutMetrics one, the
// instrumented throughput must stay ≥ 0.95x the bare one. The estimator
// is paired: within a round the two handles' executions alternate one by
// one (which goes first alternating too), the round's ratio is the bare
// over the instrumented median per-execution latency, and the gate reads
// the median of the 9 ratios. Host noise on a shared machine then moves
// both sides of a ratio alike and a burst moves one round's ratio, not
// the result, while a per-call instrumentation tax shifts every round.
func TestGateMetricsOverhead(t *testing.T) {
	const (
		n        = 3000
		rounds   = 9
		perRound = 800
	)
	sys, m := movieSystemN0(t, 50)
	params := workload.MoviesParams{Persons: n, Movies: n, LikesPerPerson: 5, NASAShare: 10, Seed: 7}
	xi0 := m.Fig1Plan()
	open := func(opts ...OpenOption) Handle {
		h, err := sys.Open(m.Generate(params), opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up: lazy one-time builds out of the measured rounds.
		if _, _, err := h.Execute(xi0); err != nil {
			t.Fatal(err)
		}
		return h
	}
	inst := open()
	defer inst.Close()
	bare := open(WithoutMetrics())
	defer bare.Close()

	timed := func(h Handle) time.Duration {
		t0 := time.Now()
		if _, _, err := h.Execute(xi0); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	median := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2]
	}
	instLat, bareLat := make([]time.Duration, perRound), make([]time.Duration, perRound)
	ratios := make([]float64, rounds)
	runtime.GC()
	for r := range ratios {
		for i := 0; i < perRound; i++ {
			if i%2 == 0 {
				instLat[i] = timed(inst)
				bareLat[i] = timed(bare)
			} else {
				bareLat[i] = timed(bare)
				instLat[i] = timed(inst)
			}
		}
		ratios[r] = median(bareLat).Seconds() / median(instLat).Seconds()
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	t.Logf("|D| = %d, %d interleaved rounds of %d timed executions per handle, GOMAXPROCS=%d",
		inst.Size(), rounds, perRound, runtime.GOMAXPROCS(0))
	t.Logf("per-round bare/instrumented median-latency ratios: %.3f", ratios)
	t.Logf("gate: instrumented/bare throughput %.3f >= 0.95", ratio)
	if ratio < 0.95 {
		t.Fatalf("metrics cost %.1f%% of epoch-reader throughput (gate: <= 5%%)", 100*(1-ratio))
	}
}
