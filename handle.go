package repro

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Handle is the serving interface over one live database, hash-partitioned
// into P shards (Open with WithShards; one partition by default). Every P
// serves the same contract:
//
//   - Execute answers a plan against the CURRENT epoch: the latest
//     published immutable version of the prepared views, fetch indices
//     and statistics. Readers never take a maintenance-scoped lock — the
//     only synchronization they share with a writer is the value
//     dictionary's per-operation mutex (O(1) hold per interned value) —
//     so an overlapping ApplyDelta is invisible until its epoch is
//     published atomically and reads are never torn (the epoch is
//     consistent across shards).
//   - Snapshot pins the current epoch: every read through the snapshot
//     sees exactly that version, no matter how many deltas land after.
//   - ApplyDelta installs the next epoch. Writers serialize among
//     themselves; they never wait for readers.
//
// Epoch lifetime and memory: consecutive epochs share all untouched
// structure (copy-on-write at the patched-structure granularity), so an
// epoch's marginal footprint tracks its batch's delta. Epoch death is
// explicit, not aspirational: the handle keeps the last n published
// epochs (WithRetainEpochs, default 1 — just the current one) in a
// retention ring addressable through At, and every Snapshot holds a
// refcount on its epoch, released by Snapshot.Close or — best-effort —
// by a GC finalizer backstop when a snapshot is dropped unclosed. An
// epoch is reclaimable once it has left the ring and no snapshot pins
// it; its unshared structures become garbage (Lifecycle reports the
// counters; the README's "Memory & retention" section has the full
// story). Holding a Snapshot retains its epoch's versions (not the whole
// history) for as long as the snapshot lives — or until Close releases
// it. Handle.Close fences writers and releases the maintenance
// machinery; snapshots already taken keep working.
//
// Handle is implemented by *Live only (the interface is sealed by an
// unexported method).
type Handle interface {
	// Execute runs a plan against the current epoch, returning the answer
	// rows and the number of tuples this call fetched from the underlying
	// database (|Dξ|), also when the call fails. Per-call attribution is
	// exact even under concurrent readers and writers.
	Execute(p Plan) ([][]string, int, error)
	// ApplyDelta applies a batch of mutations (deletes first, then
	// inserts; each delete removes one occurrence and is a no-op when
	// absent) and publishes the next epoch.
	ApplyDelta(inserts, deletes []Op) (DeltaStats, error)
	// Snapshot pins the current epoch for isolated, repeatable reads.
	// Close the snapshot when done: it releases the epoch's refcount so
	// superseded epochs can be reclaimed (a GC finalizer backstops
	// forgotten Closes, best-effort).
	Snapshot() *Snapshot
	// At returns a snapshot pinned to a RETAINED epoch by sequence
	// number: the retention ring (WithRetainEpochs) keeps the last n
	// published epochs addressable for point-in-time reads. Requests
	// outside the ring fail with an error wrapping ErrEpochRetired.
	At(seq uint64) (*Snapshot, error)
	// Lifecycle reports the handle's epoch-retention and reclamation
	// counters.
	Lifecycle() LifecycleStats
	// Views returns a decoded copy of the current epoch's view extents.
	Views() map[string][][]string
	// Stats returns the current epoch's cost-model statistics, exact as
	// of that epoch and the same at any shard count, and the epoch's
	// sequence number. Every epoch publishes its own Stats value, which is
	// immutable once published; treat it as read-only.
	Stats() (*plan.Stats, uint64)
	// Size returns |D| as of the current epoch.
	Size() int
	// FetchedTuples returns the handle-lifetime count of tuples fetched
	// from the database across all calls and snapshots.
	FetchedTuples() int
	// Metrics returns a point-in-time snapshot of the handle's metrics:
	// counters, gauges (sampled from the authoritative engine state at
	// call time) and latency histograms with p50/p99. Empty when the
	// handle was opened WithoutMetrics. See the README's "Observability"
	// section for the metric catalog.
	Metrics() Metrics
	// SlowQueries returns the retained slow-query traces, newest first
	// (nil unless WithSlowQueryThreshold armed the log).
	SlowQueries() []QueryTrace
	// Close fences writers: later ApplyDelta calls fail, reads keep
	// serving the final epoch, and the writer-side maintenance machinery
	// is released. Close is idempotent — the second and later calls are
	// no-ops returning nil.
	Close() error

	handleID() uint64

	// metricsCore exposes the live metrics core (nil when disabled) to
	// the prepared-query layer and the debug exporter. Sealing method.
	metricsCore() *obs.Core

	runner
}

// runner runs a prepared query's candidates: a Handle, on its current
// epoch, or a Snapshot, on its pinned one.
type runner interface {
	// executeObserved runs prog, the compiled form of plan p, and returns
	// the answer and the run's Execution, whose slots the closed-loop plan
	// selection feeds on (see PreparedQuery.Execute); the caller releases
	// it. tc names the prepared query for slow-query tracing.
	executeObserved(p Plan, prog *plan.Program, tc traceCtx) ([][]string, *plan.Execution, error)
}

// ErrClosed is returned by ApplyDelta on a closed handle.
var ErrClosed = fmt.Errorf("repro: handle is closed")

// defaultCheckpointEvery is the periodic-checkpoint interval (in applied
// batches) when WithDurability is given without WithCheckpointEvery.
const defaultCheckpointEvery = 256

// openConfig collects Open's functional options.
type openConfig struct {
	shards       int
	retainEpochs int
	durDir       string
	ckptEvery    int
	slowQuery    time.Duration
	noMetrics    bool
}

// OpenOption configures Open.
type OpenOption func(*openConfig)

// WithShards hash-partitions the database into p shards: batched deltas
// are routed per shard and maintained concurrently, and fetches whose
// constraint binds the partition key become single-shard point reads.
// The default is p = 1, served by the same code path. Open rejects
// p < 1.
func WithShards(p int) OpenOption { return func(c *openConfig) { c.shards = p } }

// WithRetainEpochs bounds the handle's retention ring: the last n
// published epochs (including the current one) stay addressable for
// point-in-time reads through Handle.At. n <= 1 (the default) retains
// only the current epoch. Retention is a memory bound, not a history
// log: each retained epoch pins its versions of the fetch indices and
// view extents — shared copy-on-write with its neighbours, so the
// marginal cost per retained epoch tracks the batch deltas between them.
// Epochs evicted from the ring are reclaimed as soon as no Snapshot pins
// them.
func WithRetainEpochs(n int) OpenOption {
	return func(c *openConfig) { c.retainEpochs = n }
}

// WithDurability makes the handle durable: every accepted ApplyDelta batch
// is journaled to a write-ahead log in dir before its epoch is published,
// and checkpoints periodically fold the log into a serialized epoch so a
// restart is "load latest checkpoint + replay the log suffix".
//
// Opening an EMPTY dir seeds it: the opening epoch is checkpointed and the
// given database becomes the durable state. Opening a dir that already
// holds durable state RECOVERS it — the database argument must then be a
// fresh empty one (the recovered rows replace it); a schema or view-set
// mismatch with the writer of the directory is an error. The shard count
// may differ from the writer's. Live.Recovery reports what a recovery
// replayed.
//
// If a journal or checkpoint write ever fails the handle is fenced exactly
// like Close: later ApplyDelta calls fail, reads keep serving the last
// published epoch.
func WithDurability(dir string) OpenOption {
	return func(c *openConfig) { c.durDir = dir }
}

// WithCheckpointEvery sets the periodic-checkpoint interval: a checkpoint
// is written after every n applied batches (default 256). n <= 0 disables
// periodic checkpoints — only the opening checkpoint and the final one on
// Close are written, so recovery replays the whole log. Only meaningful
// with WithDurability.
func WithCheckpointEvery(n int) OpenOption {
	return func(c *openConfig) { c.ckptEvery = n }
}

// WithSlowQueryThreshold arms the handle's slow-query log: any plan
// execution slower than d is traced — query key, plan, candidate index,
// epoch sequence, per-constraint probe/row counts, join cardinalities
// and timings — into a ring of the most recent traces, readable through
// Handle.SlowQueries and the debug exporter. Arming the log changes no
// execution: a trace is summed from the per-op slots every run keeps, and
// only for executions over the threshold; the others pay one duration
// comparison. d <= 0 (the default) disables slow logging.
func WithSlowQueryThreshold(d time.Duration) OpenOption {
	return func(c *openConfig) { c.slowQuery = d }
}

// WithoutMetrics opens the handle with the observability core disabled:
// Metrics returns an empty snapshot, no latency is recorded and the
// slow-query log is off. The instrumented path is allocation-free and
// costs a few percent at most (TestGateMetricsOverhead bounds it at 5%
// on epoch-reader throughput), so this is mainly the baseline for that
// measurement — production handles should keep metrics on.
func WithoutMetrics() OpenOption {
	return func(c *openConfig) { c.noMetrics = true }
}

// Open builds a serving handle over db: fetch indices for the system's
// access schema, incremental maintenance for its views, cost-model
// statistics, and the epoch machinery for lock-free snapshot reads. Open
// encodes db's rows once into the handle's own row store; it only reads
// db's tables, never mutating or emptying them, and later changes to them
// are not seen — route all writes through the handle. db.Dict is shared,
// not copied: the handle keeps it and interns every value its inserts
// bring. The returned Handle is a *Live.
func (sys *System) Open(db *Database, opts ...OpenOption) (Handle, error) {
	cfg := openConfig{shards: 1, ckptEvery: defaultCheckpointEvery}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durDir != "" {
		return sys.openDurable(db, cfg)
	}
	return sys.newLive(db.Dict, db.IDTables(), cfg, nil)
}

// liveIDs hands every handle a process-unique identity, so prepared
// queries can remember which handle they last selected a plan for without
// retaining the handle (and its database) itself.
var liveIDs atomic.Uint64

// epochState is one published engine epoch — every structure a reader
// touches, immutable, and an accounting-free plan.Source — plus the
// handle's lifecycle fields, the only mutable ones: advisory refcounting
// that feeds the reclamation counters and never gates reads
// (immutability plus the garbage collector keep pinned structures valid
// without it).
type epochState struct {
	*shard.Epoch

	refs    atomic.Int64 // pins: retention ring + open snapshots
	retired atomic.Bool  // evicted from the ring (no longer current)
	lc      *lifecycle
}

// traceCtx carries the prepared-query identity of an execution into the
// execution path, so slow-query traces can name the query and frontier
// candidate that ran. The zero value marks an ad-hoc plan run.
type traceCtx struct {
	key       string // canonical query key; "" for an ad-hoc run
	candidate int    // index in the prepared frontier
	explore   bool   // exploration probe of a non-incumbent
}

// recordExec folds one execution, run x, into the metrics core and, when
// it ran over the armed threshold, the slow-query log. The trace — the
// rendered plan and the per-constraint groups summed from x's slots — is
// built only on the slow path; the fast path pays the latency histogram
// update and one comparison.
func recordExec(met *obs.Core, seq uint64, p Plan, tc traceCtx, start time.Time, rows int, x *plan.Execution) {
	if met == nil {
		return
	}
	d := time.Since(start)
	met.RecordQuery(d)
	if !met.SlowEnabled() || d < met.SlowThreshold {
		return
	}
	t := obs.Trace{
		Start: start, Plan: plan.Render(p), Candidate: -1,
		EpochSeq: seq, Duration: d, Fetched: x.Fetched(), Rows: rows,
	}
	if tc.key != "" {
		t.QueryKey, t.Candidate, t.Explore = tc.key, tc.candidate, tc.explore
	}
	prog, slots := x.Program(), x.Slots()
	j := prog.Joins(slots)
	t.JoinIn, t.JoinOut = j.In, j.Out
	for i := range slots {
		if key, g, ok := prog.Group(slots, i); ok {
			t.Groups = append(t.Groups, obs.GroupTrace{Key: key, Probes: g.In, Rows: g.Out})
		}
	}
	slices.SortFunc(t.Groups, func(a, b obs.GroupTrace) int { return strings.Compare(a.Key, b.Key) })
	met.MaybeSlow(t)
}

// Snapshot is an epoch-pinned, immutable view of a handle's state: every
// read through it — Execute, Views, Fetch, Size — answers against exactly
// the epoch that was current when it was taken, no matter how many deltas
// are applied afterwards, and never blocks on (or is blocked by) writers.
//
// A snapshot retains its epoch's structures; Close it when done so
// superseded epochs can be reclaimed promptly (a GC finalizer backstops
// forgotten Closes, best-effort). Snapshots are safe for concurrent use
// but must not be copied: a *Snapshot is a live pin holding internal
// counters, so share the pointer and Close it exactly once.
type Snapshot struct {
	hid      uint64
	e        *epochState
	fetched  atomic.Int64 // tuples fetched through this snapshot
	hfetched *atomic.Int64

	lc     *lifecycle  // nil on transient internal snapshots (never pinned)
	closed atomic.Bool // Close/finalizer ran; the epoch pin is released
}

// Epoch returns the pinned epoch's sequence number (0 for the state the
// handle was opened with, +1 per applied batch).
func (s *Snapshot) Epoch() uint64 { return s.e.Seq() }

// Size returns |D| as of the pinned epoch.
func (s *Snapshot) Size() int { return s.e.Size() }

// Stats returns the pinned epoch's cost-model statistics and its
// sequence number (the same as Epoch).
func (s *Snapshot) Stats() (*plan.Stats, uint64) { return s.e.Stats(), s.e.Seq() }

// FetchedTuples returns the tuples fetched through THIS snapshot so far —
// the read-only fetch-accounting accessor that replaces reaching into the
// handle's mutable index. Attribution is exact: concurrent readers on
// other snapshots (or the handle) never inflate it.
func (s *Snapshot) FetchedTuples() int { return int(s.fetched.Load()) }

// met returns the owning handle's metrics core: nil on transient
// internal snapshots and on metrics-disabled handles, which every
// recording site tolerates.
func (s *Snapshot) met() *obs.Core {
	if s.lc == nil {
		return nil
	}
	return s.lc.met
}

// Execute runs a plan against the pinned epoch, returning the answer rows
// and the tuples fetched from the database by this call (exact per-call
// attribution, also under concurrent use).
func (s *Snapshot) Execute(p Plan) ([][]string, int, error) {
	return released(execute(s.e, s.met(), &s.fetched, s.hfetched, p, nil, traceCtx{}))
}

// executeObserved runs a prepared candidate's program for
// PreparedQuery.ExecuteOn.
func (s *Snapshot) executeObserved(p Plan, prog *plan.Program, tc traceCtx) ([][]string, *plan.Execution, error) {
	return execute(s.e, s.met(), &s.fetched, s.hfetched, p, prog, tc)
}

// execute runs plan p against epoch e for a handle or snapshot: prog, p
// compiled once, when it is a prepared candidate's, else p compiled for
// this run (a caller's plan may change between calls). tc names the
// prepared query for the slow-query trace. The tuples the run fetched are
// added to the caller's attribution counters (owner; up, when the owner
// rolls up into a handle — nil otherwise), also when the run fails, and
// the run is recorded in met (nil-safe). The caller releases the returned
// Execution.
func execute(e *epochState, met *obs.Core, owner, up *atomic.Int64, p Plan, prog *plan.Program, tc traceCtx) ([][]string, *plan.Execution, error) {
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	rows, x, err := plan.Exec(p, prog, e.Epoch, e.Prepared())
	account(x.Fetched(), owner, up)
	if err == nil {
		recordExec(met, e.Seq(), p, tc, t0, len(rows), x)
	}
	return rows, x, err
}

// released releases an ad-hoc run's Execution and returns the run's answer
// and fetched tuples.
func released(rows [][]string, x *plan.Execution, err error) ([][]string, int, error) {
	n := x.Fetched()
	x.Release()
	return rows, n, err
}

// account adds n fetched tuples to a snapshot's or handle's counter and,
// when non-nil, to the handle counter it rolls up into.
func account(n int, owner, up *atomic.Int64) {
	owner.Add(int64(n))
	if up != nil {
		up.Add(int64(n))
	}
}

// Views returns a decoded copy of the pinned epoch's view extents. The
// returned map and rows are owned by the caller.
func (s *Snapshot) Views() map[string][][]string {
	ids := s.e.AllViewIDs()
	out := make(map[string][][]string, len(ids))
	for name, rows := range ids {
		out[name] = s.e.Dict().DecodeAll(rows)
		if out[name] == nil {
			out[name] = [][]string{}
		}
	}
	return out
}

// Fetch performs fetch(X = xval, R, Y) for constraint c against the
// pinned epoch, decoding the distinct XY-projections. Fetched tuples are
// accounted to the snapshot and the handle.
func (s *Snapshot) Fetch(c *Constraint, xval Tuple) ([]Tuple, error) {
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("repro: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	key, ok := s.e.Dict().LookupRow(xval)
	if !ok {
		return nil, nil // value never interned: no row can match
	}
	idRows, err := s.e.FetchIDs(c, key)
	if err != nil {
		return nil, err
	}
	account(len(idRows), &s.fetched, s.hfetched)
	rows := make([]Tuple, len(idRows))
	for i, r := range idRows {
		rows[i] = Tuple(s.e.Dict().Decode(r))
	}
	return rows, nil
}

// DeltaStats summarizes one applied batch. It is a plain value — safe
// to copy, retains no reference to engine state.
type DeltaStats struct {
	Inserted     int // tuples physically inserted
	Deleted      int // tuples physically removed (absent deletes are no-ops)
	ViewsChanged int // views whose extents differ from the previous epoch's

	// MaxExclusive is the longest contiguous single-structure maintenance
	// window of the batch: the slowest shard's slice (its rows, fetch
	// index and shard-local views) or the global engine's view delta,
	// whichever took longer. At P = 1 that is the one shard's hold; it
	// excludes validation, journaling, statistics and publication. Under
	// epoch reads it blocks no reader — readers stay on the previous epoch
	// — but it bounds the batch's publication lag, which is what the
	// sharded scaling gate (TestGateShardScaling) tracks.
	MaxExclusive time.Duration
	// StatsRefreshed reports that the batch moved the published
	// statistics: it inserted or deleted at least one tuple
	// (Inserted+Deleted > 0).
	//
	// Deprecated: every epoch publishes exact statistics, and a prepared
	// query re-prices its plan under each epoch's; there is no statistics
	// version to refresh. Read Inserted and Deleted instead.
	StatsRefreshed bool
}

// Live is the serving handle. The rows it was opened over are
// hash-partitioned into P shards (WithShards; P = 1 by default), each
// owning its rows, fetch-index versions and
// view-maintenance engine; views that are not shard-local (a join across
// partition keys, or a head that drops the key) are maintained by one
// global engine, and one store keeps the statistics. Fetches whose
// constraint binds the partition key are single-shard point reads,
// everything else gathers across shards. ApplyDelta routes ops per shard,
// maintains the shards concurrently and publishes the combined result as
// ONE cross-shard-consistent epoch, so a read (or Snapshot) sees a batch
// either fully applied or not at all, and readers never block.
type Live struct {
	sys *System
	id  uint64 // process-unique handle identity (see PreparedQuery selection)
	sh  *shard.Sharded

	mu      sync.Mutex   // serializes Close against ApplyDelta
	closed  bool         // writers fenced (Close, or a torn/journal failure)
	sealed  bool         // Close ran; teardown done, later Closes are no-ops
	fetched atomic.Int64 // handle-lifetime fetched tuples

	lc *lifecycle
	// cur caches ONE epochState wrapper per published shard epoch, so
	// every Snapshot of an epoch pins the same refcounted state (the
	// lifecycle needs identity, which wrapping per call would break).
	cur atomic.Pointer[epochState]

	// Durability (nil wal on non-durable handles). The engine's journal
	// hook appends each batch's physical ops BEFORE its epoch is published;
	// sinceCkpt batches after the last checkpoint trigger the next one
	// (when ckptEvery > 0).
	wal       *wal.Log
	ckptEvery int
	sinceCkpt int
	recovery  RecoveryInfo

	met *obs.Core // nil when opened WithoutMetrics
}

// newLive builds a handle over ID-encoded rows interned through d (see
// shard.Open). ck, when non-nil, is the checkpoint the rows were restored
// from: its epoch number and counted view extents seed the engine instead
// of being recomputed, at any shard count.
func (sys *System) newLive(d *intern.Dict, rows map[string][][]uint32, cfg openConfig, ck *wal.Checkpoint) (*Live, error) {
	scfg := shard.Config{Shards: cfg.shards}
	// The metrics core stays nil when disabled: every recording site is
	// nil-safe.
	var met *obs.Core
	if !cfg.noMetrics {
		met = obs.NewCore(cfg.shards)
		met.SetSlowThreshold(cfg.slowQuery)
		scfg.Probes = met.ShardProbes
	}
	if ck != nil {
		scfg.InitialSeq = ck.Seq
		if len(ck.Views) > 0 {
			scfg.Extents = make(map[string]eval.Extent, len(ck.Views))
			for _, v := range ck.Views {
				scfg.Extents[v.Name] = eval.Extent{Rows: v.Rows, Counts: v.Counts}
			}
		}
	}
	sh, e, err := shard.Open(d, rows, sys.Schema, sys.Access, sys.Views, scfg)
	if err != nil {
		return nil, err
	}
	l := &Live{sys: sys, id: liveIDs.Add(1), sh: sh, lc: newLifecycle(cfg.retainEpochs, met), met: met}
	l.registerGauges()
	// A restored checkpoint's epoch enters the ring before replay, so the
	// replayed batches retire it through the normal eviction path.
	l.publishEpoch(e)
	return l, nil
}

// walMetrics extracts the WAL instrument bundle from a core (nil when
// metrics are disabled — the log then records nothing).
func walMetrics(met *obs.Core) *obs.WALMetrics {
	if met == nil {
		return nil
	}
	return &met.WAL
}

// registerGauges installs the handle-state function gauges: they read
// the authoritative counters at snapshot time, so e.g. the exported
// fetched-tuples value can never drift from FetchedTuples().
func (l *Live) registerGauges() {
	if l.met == nil {
		return
	}
	l.met.Reg.GaugeFunc("repro_fetched_tuples_total",
		"handle-lifetime tuples fetched from the database (== FetchedTuples)",
		func() int64 { return l.fetched.Load() })
	l.met.Reg.GaugeFunc("repro_epoch_seq", "current epoch sequence number",
		func() int64 { return int64(l.cur.Load().Seq()) })
	l.met.Reg.GaugeFunc("repro_db_size", "|D| across all shards as of the current epoch",
		func() int64 { return int64(l.cur.Load().Size()) })
}

// publishEpoch wraps the engine's freshly published epoch as the handle's
// refcounted epoch state and installs it: ring first, pointer second, so
// an epoch is addressable through At by the time Snapshot can observe it
// as current. Called with the writer lock held (or exclusive access, as
// in newLive).
func (l *Live) publishEpoch(e *shard.Epoch) {
	es := &epochState{Epoch: e}
	l.lc.push(es)
	l.cur.Store(es)
	if l.met != nil {
		l.met.EpochPublishes.Add(1)
	}
}

func (l *Live) handleID() uint64 { return l.id }

// Snapshot pins the current cross-shard-consistent epoch. See the type's
// documentation.
func (l *Live) Snapshot() *Snapshot {
	return l.lc.snapshotCur(l.id, l.cur.Load(), &l.fetched)
}

// At returns a snapshot pinned to a retained epoch by sequence number.
// See Handle.At.
func (l *Live) At(seq uint64) (*Snapshot, error) {
	return l.lc.snapshotAt(l.id, seq, &l.fetched)
}

// Lifecycle reports the handle's epoch-retention and reclamation counters.
func (l *Live) Lifecycle() LifecycleStats { return l.lc.stats() }

// Execute runs a plan against the current epoch, returning the answer
// rows and the tuples fetched from D by this call (exact attribution,
// also under concurrent readers and writers).
func (l *Live) Execute(p Plan) ([][]string, int, error) {
	return released(execute(l.cur.Load(), l.met, &l.fetched, nil, p, nil, traceCtx{}))
}

// executeObserved runs a prepared candidate's program for
// PreparedQuery.Execute.
func (l *Live) executeObserved(p Plan, prog *plan.Program, tc traceCtx) ([][]string, *plan.Execution, error) {
	return execute(l.cur.Load(), l.met, &l.fetched, nil, p, prog, tc)
}

// Metrics returns a point-in-time snapshot of the handle's metrics.
func (l *Live) Metrics() Metrics { return l.met.Snapshot() }

// SlowQueries returns the retained slow-query traces, newest first (nil
// unless WithSlowQueryThreshold armed the log).
func (l *Live) SlowQueries() []QueryTrace {
	if l.met == nil {
		return nil
	}
	return l.met.Slow.Snapshot()
}

func (l *Live) metricsCore() *obs.Core { return l.met }

// ApplyDelta applies a batch of mutations (deletes first, then inserts),
// routed per shard and maintained concurrently, and publishes the next
// epoch. Per-batch cost depends on the data the delta's residual joins
// touch, not on |D|. Readers are never blocked: they stay on the previous
// epoch until the new one is published atomically. The batch is validated,
// then interned once in batch order, so IDs do not depend on P.
func (l *Live) ApplyDelta(inserts, deletes []Op) (DeltaStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return DeltaStats{}, ErrClosed
	}
	t0 := time.Now()
	if err := instance.Validate(l.sys.Schema, inserts, deletes); err != nil {
		return DeltaStats{}, err
	}
	ins, del := instance.Encode(l.sh.Dict(), inserts, deletes)
	return l.applyLocked(t0, ins, del)
}

// applyLocked applies a validated ID batch, publishes its epoch and
// checkpoints when due: ApplyDelta's path and log replay's. Callers hold
// l.mu (or have exclusive access, as replay does).
func (l *Live) applyLocked(t0 time.Time, inserts, deletes []instance.AppliedOp) (DeltaStats, error) {
	st, e, err := l.sh.ApplyDelta(inserts, deletes)
	if err != nil {
		// Every engine error is post-mutation (shard.ErrTorn): fence like
		// Close; reads keep serving the last published epoch.
		l.closed = true
		return DeltaStats{}, err
	}
	l.publishEpoch(e)
	if l.wal != nil {
		l.sinceCkpt++
		if l.ckptEvery > 0 && l.sinceCkpt >= l.ckptEvery {
			if cerr := l.checkpointLocked(); cerr != nil {
				// The batch itself is durable and published; only the fold
				// failed. Fence so no later batch outruns a broken log.
				l.closed = true
				return DeltaStats{}, fmt.Errorf("repro: checkpoint: %w", cerr)
			}
		}
	}
	l.met.RecordApply(time.Since(t0), st.Inserted+st.Deleted)
	return DeltaStats{
		Inserted:       st.Inserted,
		Deleted:        st.Deleted,
		ViewsChanged:   st.ViewsChanged,
		MaxExclusive:   st.MaxShardHold,
		StatsRefreshed: st.Inserted+st.Deleted > 0,
	}, nil
}

// checkpointLocked serializes the current epoch into the log: the
// relations' ID rows (schema order; per-shard rows concatenated in shard
// order) and every view's counted extent, which spares a restart at any
// shard count the view enumeration. Callers hold l.mu.
func (l *Live) checkpointLocked() error {
	ck := &wal.Checkpoint{Seq: l.cur.Load().Seq()}
	tables := l.sh.CheckpointTables()
	for _, rel := range l.sys.Schema.Relations {
		ck.Tables = append(ck.Tables, wal.TableRows{Rel: rel.Name, Rows: tables[rel.Name]})
	}
	for name, ext := range l.sh.CheckpointExtents() {
		ck.Views = append(ck.Views, wal.ViewExtent{Name: name, Rows: ext.Rows, Counts: ext.Counts})
	}
	if err := l.wal.WriteCheckpoint(l.sh.Dict(), ck); err != nil {
		return err
	}
	l.sinceCkpt = 0
	return nil
}

// Recovery reports what opening this handle's durable directory replayed.
// The zero value means the handle was opened fresh (or is not durable).
func (l *Live) Recovery() RecoveryInfo { return l.recovery }

// Views returns a decoded copy of the current epoch's view extents. The
// returned map and rows are fresh copies owned by the caller.
func (l *Live) Views() map[string][][]string {
	return (&Snapshot{e: l.cur.Load()}).Views()
}

// Size returns |D| across all shards as of the current epoch.
func (l *Live) Size() int { return l.cur.Load().Size() }

// ShardCount returns the number of partitions.
func (l *Live) ShardCount() int { return len(l.ShardSizes()) }

// ShardSizes returns |D_p| for every partition.
func (l *Live) ShardSizes() []int { return l.cur.Load().ShardSizes() }

// LocalViews reports which views are maintained shard-locally (at P = 1
// every view) and which by the cross-shard global engine.
func (l *Live) LocalViews() (local, global []string) { return l.sh.LocalViews() }

// Stats returns the current epoch's cost-model statistics (exact, and the
// same at any shard count) and its sequence number. The returned Stats is
// immutable once published; treat it as read-only.
func (l *Live) Stats() (*plan.Stats, uint64) {
	e := l.cur.Load()
	return e.Stats(), e.Seq()
}

// FetchedTuples returns the handle-lifetime count of tuples fetched from
// the database (the |Dξ| accounting; deduplicated across shards).
func (l *Live) FetchedTuples() int { return int(l.fetched.Load()) }

// Close fences writers and releases the maintenance machinery: later
// ApplyDelta calls fail, reads keep serving the final epoch, and
// snapshots already taken are unaffected. On a durable handle Close first
// writes a clean final checkpoint (unless already fenced by a journal
// failure) and closes the log, so the next open recovers without replay.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		// Close already ran (sealed is set by Close only, never by a
		// fence): the second call is a no-op.
		return nil
	}
	l.sealed = true
	var err error
	if l.wal != nil {
		// A fenced handle (torn apply, journal or checkpoint failure)
		// skips the final checkpoint: its writer-side state may be ahead
		// of — or inconsistent with — the last durable epoch, and a stale
		// "clean" checkpoint would mask the journal's truth on recovery.
		if !l.closed && l.sinceCkpt > 0 {
			err = l.checkpointLocked()
		}
		if cerr := l.wal.Close(); err == nil {
			err = cerr
		}
		l.wal = nil
	}
	l.closed = true
	l.sh.Close()
	l.sys.releaseHandle(l.id)
	return err
}
