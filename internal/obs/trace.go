package obs

import (
	"sync"
	"time"
)

// Trace is the record of one plan execution: what ran, over which
// epoch, what it touched per access constraint, and how long it took.
// A Trace is a plain value snapshot — it is safe to copy and retains
// no reference to engine state (the Groups slice is owned by the
// trace).
type Trace struct {
	// Start is the wall-clock time the execution began.
	Start time.Time
	// QueryKey is the canonical (renaming-invariant) query key for
	// prepared executions, or "" for ad-hoc plan runs.
	QueryKey string
	// Plan is the rendered plan tree that ran.
	Plan string
	// Candidate is the index of the executed plan in the prepared
	// frontier (-1 for ad-hoc runs).
	Candidate int
	// Explore reports whether this execution was an exploration probe
	// of a non-incumbent candidate.
	Explore bool
	// EpochSeq is the epoch the execution read.
	EpochSeq uint64
	// Duration is the end-to-end execution latency.
	Duration time.Duration
	// Fetched is the number of tuples fetched from the database by
	// this execution (|Dξ| — the paper's bounded quantity). It equals
	// the sum of Rows over Groups.
	Fetched int
	// Rows is the number of answer rows produced.
	Rows int
	// JoinIn and JoinOut are the summed input and output cardinalities
	// of the plan's join nodes.
	JoinIn, JoinOut int
	// Groups breaks Fetched down per access constraint.
	Groups []GroupTrace
}

// GroupTrace is the per-access-constraint slice of a Trace: how many
// times the constraint's fetch index was probed and how many tuples
// those probes returned. Plain value; safe to copy.
type GroupTrace struct {
	// Key identifies the access constraint (relation + X->Y signature).
	Key string
	// Probes is the number of index probes issued.
	Probes int
	// Rows is the number of tuples the probes fetched.
	Rows int
}

// SlowLog is a fixed-capacity ring of the most recent slow-query
// traces. Writes happen only for executions over the configured
// threshold, so the mutex is off the hot path by construction: a fast
// execution pays one duration comparison and never touches the lock.
type SlowLog struct {
	mu    sync.Mutex
	ring  []Trace
	next  int
	total int64
}

// NewSlowLog returns a ring holding the last n traces (n clamped to
// at least 1).
func NewSlowLog(n int) *SlowLog {
	if n < 1 {
		n = 1
	}
	return &SlowLog{ring: make([]Trace, 0, n)}
}

// Add appends a trace, evicting the oldest when full. No-op on a nil
// receiver.
func (s *SlowLog) Add(t Trace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, t)
		return
	}
	s.ring[s.next] = t
	s.next = (s.next + 1) % len(s.ring)
}

// Snapshot returns the retained traces, newest first. The result is a
// fresh copy the caller owns.
func (s *SlowLog) Snapshot() []Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Trace, 0, len(s.ring))
	// ring[next-1] is the newest entry once the ring has wrapped;
	// before wrapping the newest is the last appended element.
	for i := 0; i < len(s.ring); i++ {
		idx := (s.next - 1 - i + 2*len(s.ring)) % len(s.ring)
		out = append(out, s.ring[idx])
	}
	return out
}

// Total returns how many traces were ever added (including evicted).
func (s *SlowLog) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// WALMetrics bundles the durability-layer instruments. The wal package
// records into these; a zero/nil field set (metrics disabled) is safe
// because every instrument tolerates nil. Every field is a pointer, so
// copying the struct shares the live instruments, not their values.
type WALMetrics struct {
	Appends       *Counter
	AppendLatency *Histogram
	Fsyncs        *Counter
	FsyncLatency  *Histogram
	Checkpoints   *Counter
	CheckpointDur *Histogram
	Fences        *Counter
}

// slowLogDepth is the slow-query ring capacity per handle.
const slowLogDepth = 128

// Core is the per-handle observability bundle: one registry, the
// engine's named instruments, and the slow-query log. A nil *Core is
// the metrics-disabled state — every method is nil-safe, so call
// sites guard with a single pointer test (or none, for the helpers).
type Core struct {
	Reg *Registry

	// Query read path.
	QueryExecs   *Counter
	QueryLatency *Histogram
	SlowQueries  *Counter

	// Write path / epochs.
	Applies        *Counter
	ApplyRows      *Counter
	ApplyLatency   *Histogram
	EpochPublishes *Counter

	// Closed-loop plan selection.
	Reranks  *Counter
	Explores *Counter
	Switches *Counter

	// Durability.
	WAL WALMetrics

	// Per-shard probe counters (len = shard count; nil when shards <= 0).
	ShardProbes []*Counter

	// Slow-query log; nil until a threshold is set.
	Slow *SlowLog
	// SlowThreshold is the latency above which executions are traced
	// into Slow (0 = slow logging disabled).
	SlowThreshold time.Duration
}

// NewCore builds a registry pre-populated with the engine-wide
// instruments. shards > 0 additionally registers per-shard probe
// counters repro_shard_probes_total_<i>.
func NewCore(shards int) *Core {
	r := NewRegistry()
	c := &Core{
		Reg:          r,
		QueryExecs:   r.Counter("repro_query_total", "plan executions served"),
		QueryLatency: r.Histogram("repro_query_seconds", "plan execution latency"),
		SlowQueries:  r.Counter("repro_slow_query_total", "executions over the slow-query threshold"),

		Applies:        r.Counter("repro_apply_total", "ApplyDelta batches accepted"),
		ApplyRows:      r.Counter("repro_apply_rows_total", "tuple ops applied across batches"),
		ApplyLatency:   r.Histogram("repro_apply_seconds", "ApplyDelta end-to-end latency"),
		EpochPublishes: r.Counter("repro_epoch_publish_total", "immutable epochs published"),

		Reranks:  r.Counter("repro_plan_rerank_total", "observed-cost frontier re-ranks"),
		Explores: r.Counter("repro_plan_explore_total", "exploration probes of non-incumbent plans"),
		Switches: r.Counter("repro_plan_switch_total", "incumbent plan switches after re-rank"),
	}
	c.WAL = WALMetrics{
		Appends:       r.Counter("repro_wal_append_total", "WAL records appended"),
		AppendLatency: r.Histogram("repro_wal_append_seconds", "WAL append latency (encode, write and fsync)"),
		Fsyncs:        r.Counter("repro_wal_fsync_total", "WAL fsync calls"),
		FsyncLatency:  r.Histogram("repro_wal_fsync_seconds", "WAL fsync latency"),
		Checkpoints:   r.Counter("repro_wal_checkpoint_total", "checkpoints written"),
		CheckpointDur: r.Histogram("repro_wal_checkpoint_seconds", "checkpoint write duration"),
		Fences:        r.Counter("repro_wal_fence_total", "durability fence events (poisoned log)"),
	}
	if shards > 0 {
		c.ShardProbes = make([]*Counter, shards)
		for i := range c.ShardProbes {
			c.ShardProbes[i] = r.Counter(shardProbeName(i), "fetch-index probes routed to this shard")
		}
	}
	return c
}

// shardProbeName renders the per-shard probe counter name without fmt
// (keeps the package dependency-light and the name stable).
func shardProbeName(i int) string {
	return "repro_shard_probes_total_" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// SetSlowThreshold arms the slow-query log: executions slower than d
// are traced into a ring of the most recent slowLogDepth traces.
func (c *Core) SetSlowThreshold(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.SlowThreshold = d
	c.Slow = NewSlowLog(slowLogDepth)
}

// SlowEnabled reports whether slow-query tracing is armed.
func (c *Core) SlowEnabled() bool {
	return c != nil && c.SlowThreshold > 0
}

// RecordQuery records one execution's latency. Nil-safe.
func (c *Core) RecordQuery(d time.Duration) {
	if c == nil {
		return
	}
	c.QueryExecs.Add(1)
	c.QueryLatency.Observe(d)
}

// MaybeSlow records t into the slow log when its duration is over the
// armed threshold. Nil-safe; a fast execution pays one comparison.
func (c *Core) MaybeSlow(t Trace) {
	if c == nil || c.SlowThreshold <= 0 || t.Duration < c.SlowThreshold {
		return
	}
	c.SlowQueries.Add(1)
	c.Slow.Add(t)
}

// RecordApply records one accepted batch. Nil-safe.
func (c *Core) RecordApply(d time.Duration, rows int) {
	if c == nil {
		return
	}
	c.Applies.Add(1)
	c.ApplyRows.Add(int64(rows))
	c.ApplyLatency.Observe(d)
}

// Snapshot returns a point-in-time copy of every registered metric
// (empty maps on a nil receiver).
func (c *Core) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]int64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	return c.Reg.Snapshot()
}
