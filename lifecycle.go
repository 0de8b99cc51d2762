package repro

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrEpochRetired is wrapped by Handle.At when the requested epoch has
// left the retention ring (or was never published).
var ErrEpochRetired = fmt.Errorf("repro: epoch retired from the retention ring")

// LifecycleStats reports a handle's epoch-retention and reclamation
// counters (see Handle.Lifecycle). Reclamation counters are advisory:
// they are observability, never reader safety — epoch structures are
// immutable and garbage-collected, so a racy double-count cannot
// unpublish anything a reader still holds.
// LifecycleStats is a plain value copy; it retains no reference to the
// lifecycle it was read from.
type LifecycleStats struct {
	// RetainedEpochs is the retention ring's current length: the epochs
	// addressable through At (WithRetainEpochs bounds it).
	RetainedEpochs int
	// LiveSnapshots counts snapshots acquired and not yet released by
	// Close or the finalizer backstop.
	LiveSnapshots int
	// ReclaimedEpochs counts epochs whose last pin dropped after they
	// left the ring.
	ReclaimedEpochs int64
	// FinalizedSnapshots counts snapshots released by the GC finalizer
	// backstop instead of an explicit Close. Nonzero values mean callers
	// are leaking snapshots; the backstop is best-effort (it needs a GC
	// cycle to run) and no substitute for Close.
	FinalizedSnapshots int64
	// CompactionPasses always reads 0.
	//
	// Deprecated: the writer runs no deferred compaction.
	CompactionPasses int64
	// RepackedIndexGroups always reads 0.
	//
	// Deprecated: the writer runs no deferred compaction.
	RepackedIndexGroups int64
}

// lifecycle tracks one handle's epoch retention: the bounded ring of
// addressable epochs and the advisory refcounts' reclamation counters.
// The ring is shared by the writer (push, under the handle's write lock)
// and At readers, so its own mutex guards it; the counters are atomics.
type lifecycle struct {
	retain int // ring capacity, >= 1 (the current epoch is always ringed)

	mu   sync.Mutex
	ring []*epochState // oldest first; each entry holds one ring pin

	snaps     atomic.Int64
	finalized atomic.Int64
	reclaimed atomic.Int64

	met *obs.Core // the owning handle's metrics core (nil when disabled)
}

func newLifecycle(retain int, met *obs.Core) *lifecycle {
	if retain < 1 {
		retain = 1
	}
	lc := &lifecycle{retain: retain, met: met}
	if met != nil {
		// Function gauges read the authoritative lifecycle counters at
		// snapshot time instead of maintaining shadow copies, so the
		// exported values can never drift from Handle.Lifecycle.
		met.Reg.GaugeFunc("repro_snapshot_pins",
			"open snapshots pinning an epoch", lc.snaps.Load)
		met.Reg.GaugeFunc("repro_snapshot_finalized_total",
			"snapshots released by the GC backstop instead of Close", lc.finalized.Load)
		met.Reg.GaugeFunc("repro_epochs_retained",
			"retention ring length (epochs addressable through At)",
			func() int64 {
				lc.mu.Lock()
				defer lc.mu.Unlock()
				return int64(len(lc.ring))
			})
		met.Reg.GaugeFunc("repro_epochs_reclaimed_total",
			"epochs whose last pin dropped after leaving the ring", lc.reclaimed.Load)
	}
	return lc
}

// acquire pins the epoch. Pins are advisory (they feed the reclamation
// counters, not reader safety — immutability plus the garbage collector
// provide that), which is why a reader may acquire an epoch it loaded
// from the handle's atomic pointer without coordinating with a concurrent
// eviction: a 0→1 "resurrection" race at worst double-counts a
// reclamation.
func (e *epochState) acquire() { e.refs.Add(1) }

// release drops one pin; the last release of a RETIRED epoch (one the
// ring evicted) counts it as reclaimed.
func (e *epochState) release() {
	if e.refs.Add(-1) == 0 && e.retired.Load() && e.lc != nil {
		e.lc.reclaimed.Add(1)
	}
}

// push appends a freshly published epoch to the ring and evicts beyond
// the retention bound. Called by the publishing writer only.
func (lc *lifecycle) push(e *epochState) {
	e.lc = lc
	e.acquire() // the ring's pin
	lc.mu.Lock()
	lc.ring = append(lc.ring, e)
	var evicted []*epochState
	for len(lc.ring) > lc.retain {
		old := lc.ring[0]
		copy(lc.ring, lc.ring[1:])
		lc.ring[len(lc.ring)-1] = nil
		lc.ring = lc.ring[:len(lc.ring)-1]
		evicted = append(evicted, old)
	}
	lc.mu.Unlock()
	for _, old := range evicted {
		// Retire BEFORE releasing: if no snapshot pins the epoch, this
		// very release counts it as reclaimed.
		old.retired.Store(true)
		old.release()
	}
}

// snapshotCur wraps the handle's current epoch as a counted snapshot.
func (lc *lifecycle) snapshotCur(hid uint64, e *epochState, hfetched *atomic.Int64) *Snapshot {
	e.acquire()
	return lc.newSnapshot(hid, e, hfetched)
}

// snapshotAt serves a point-in-time read from the retention ring. The
// acquire happens under the ring lock, so it cannot race an eviction: an
// epoch found in the ring still holds its ring pin.
func (lc *lifecycle) snapshotAt(hid uint64, seq uint64, hfetched *atomic.Int64) (*Snapshot, error) {
	lc.mu.Lock()
	for _, e := range lc.ring {
		if e.Seq() == seq {
			e.acquire()
			lc.mu.Unlock()
			return lc.newSnapshot(hid, e, hfetched), nil
		}
	}
	var lo, hi uint64
	if len(lc.ring) > 0 {
		lo, hi = lc.ring[0].Seq(), lc.ring[len(lc.ring)-1].Seq()
	}
	lc.mu.Unlock()
	return nil, fmt.Errorf("repro: epoch %d not retained (window [%d, %d]; see WithRetainEpochs): %w", seq, lo, hi, ErrEpochRetired)
}

// newSnapshot registers an ALREADY-acquired epoch pin as a snapshot and
// arms the finalizer backstop.
func (lc *lifecycle) newSnapshot(hid uint64, e *epochState, hfetched *atomic.Int64) *Snapshot {
	s := &Snapshot{hid: hid, e: e, hfetched: hfetched, lc: lc}
	lc.snaps.Add(1)
	runtime.SetFinalizer(s, finalizeSnapshot)
	return s
}

// finalizeSnapshot is the GC backstop for snapshots dropped without
// Close: best-effort (it needs a collection cycle to run, and until then
// the epoch stays pinned), counted so leaks are observable.
func finalizeSnapshot(s *Snapshot) {
	if s.closed.CompareAndSwap(false, true) {
		s.lc.finalized.Add(1)
		s.lc.snaps.Add(-1)
		s.e.release()
	}
}

// Close releases the snapshot's epoch pin, letting a superseded epoch be
// reclaimed as soon as its last pin drops. Close is idempotent and safe
// for concurrent use; it always returns nil (the error return keeps it an
// io.Closer). Reads through a closed snapshot still work — the epoch's
// structures are immutable and garbage-collected — but a closed snapshot
// no longer counts as a pin, so prefer closing only when done. Snapshots
// dropped unclosed are released by a GC finalizer backstop; that is
// best-effort and delays reclamation until a collection cycle, so
// long-running servers should Close explicitly.
func (s *Snapshot) Close() error {
	if s.lc == nil {
		return nil // transient internal snapshot (e.g. Views decoding): never pinned
	}
	if s.closed.CompareAndSwap(false, true) {
		runtime.SetFinalizer(s, nil)
		s.lc.snaps.Add(-1)
		s.e.release()
	}
	return nil
}

// stats snapshots the counters.
func (lc *lifecycle) stats() LifecycleStats {
	lc.mu.Lock()
	n := len(lc.ring)
	lc.mu.Unlock()
	return LifecycleStats{
		RetainedEpochs:     n,
		LiveSnapshots:      int(lc.snaps.Load()),
		ReclaimedEpochs:    lc.reclaimed.Load(),
		FinalizedSnapshots: lc.finalized.Load(),
	}
}
