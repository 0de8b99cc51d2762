package repro

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/shard"
	"repro/internal/workload"
)

// desyncLive makes a P = 1 handle's next batch fail after its shard
// mutated: it replaces the journal hook, which runs once every structure
// has applied the batch, with one that fails, and returns a delete of a
// stored row for that batch. which picks the row: "eng" a person (a view
// input but no constraint key, so the batch changes the maintenance
// engine's rows and views), "vix" a movie (a ϕ1 key, so the batch also
// changes the versioned fetch index). The stale-index rejection itself
// is covered by shard's TestStaleVIndexRejectionIsTorn.
func desyncLive(t *testing.T, l *Live, db *Database, which string) Op {
	t.Helper()
	var rel string
	switch which {
	case "eng":
		rel = "person"
	case "vix":
		rel = "movie"
	default:
		t.Fatalf("unknown desync target %q", which)
	}
	l.sh.SetJournal(func(uint64, *instance.Applied) error { return errors.New("injected post-mutation failure") })
	return Op{Rel: rel, Row: db.Table(rel).Tuples[0]}
}

// TestPartialApplyFencesLive proves the P = 1 fence: when a batch fails
// AFTER the shard mutated (here injected through the journal hook), the
// handle must fence — later writes fail with ErrClosed while reads keep
// serving the last published epoch — because the writer-side components
// no longer describe one published state.
func TestPartialApplyFencesLive(t *testing.T) {
	for _, which := range []string{"eng", "vix"} {
		t.Run(which, func(t *testing.T) {
			sys, m := movieSystem(t)
			db := m.Generate(workload.MoviesParams{Persons: 120, Movies: 120, LikesPerPerson: 4, NASAShare: 8, Seed: 2})
			h, err := sys.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			l := h.(*Live)
			p := m.Fig1Plan()
			wantRows, _, err := l.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			wantViews := viewFingerprint(l.Views())
			wantSize := l.Size()

			op := desyncLive(t, l, db, which)
			_, err = l.ApplyDelta(nil, []Op{op})
			if err == nil {
				t.Fatal("deleting the desynced row must fail")
			}
			if !errors.Is(err, shard.ErrTorn) {
				t.Fatalf("partial-apply error not marked as torn: %v", err)
			}

			// Fenced: writes fail, including pure no-op batches.
			if _, err := l.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-new", "New", "ESA"}}}, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("write after fence: got %v, want ErrClosed", err)
			}
			// Reads keep serving the last published epoch, untouched by the
			// torn batch.
			rows, _, err := l.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
				t.Fatal("fenced handle's answers drifted from the last published epoch")
			}
			if got := viewFingerprint(l.Views()); got != wantViews {
				t.Fatal("fenced handle's views drifted from the last published epoch")
			}
			if l.Size() != wantSize {
				t.Fatalf("fenced handle reports size %d, want the published %d", l.Size(), wantSize)
			}
			s := l.Snapshot()
			if got := viewFingerprint(s.Views()); got != wantViews {
				t.Fatal("snapshot after fence drifted")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Close on a fenced handle is clean and idempotent.
			if err := l.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("second Close must be a no-op nil, got %v", err)
			}
		})
	}
}

// TestValidationErrorDoesNotFence: a batch the database REJECTS before
// mutating anything (unknown relation, wrong arity) leaves the handle
// open — only post-mutation failures fence.
func TestValidationErrorDoesNotFence(t *testing.T) {
	for _, opts := range [][]OpenOption{nil, {WithShards(2)}} {
		t.Run(fmt.Sprintf("shards=%d", len(opts)*2), func(t *testing.T) {
			sys, m := movieSystem(t)
			db := m.Generate(workload.MoviesParams{Persons: 80, Movies: 80, LikesPerPerson: 3, NASAShare: 8, Seed: 4})
			h, err := sys.Open(db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if _, err := h.ApplyDelta([]Op{{Rel: "nosuch", Row: Tuple{"x"}}}, nil); err == nil {
				t.Fatal("unknown relation must be rejected")
			}
			if _, err := h.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"short"}}}, nil); err == nil {
				t.Fatal("arity mismatch must be rejected")
			}
			// Still open: a valid batch lands and publishes.
			st, err := h.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-ok", "Still Open", "NASA"}}}, nil)
			if err != nil {
				t.Fatalf("handle fenced by a pure validation error: %v", err)
			}
			if st.Inserted != 1 {
				t.Fatalf("post-validation batch inserted %d rows, want 1", st.Inserted)
			}
		})
	}
}

// TestPartialApplyFencesSharded proves the sharded fence: any
// post-mutation failure surfaces wrapping shard.ErrTorn (here injected
// through the journal hook, which runs after every shard mutated) and
// fences the facade exactly like Close.
func TestPartialApplyFencesSharded(t *testing.T) {
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 120, Movies: 120, LikesPerPerson: 4, NASAShare: 8, Seed: 6})
	h, err := sys.Open(db, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	l := h.(*Live)
	p := m.Fig1Plan()
	wantRows, _, err := l.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	wantViews := viewFingerprint(l.Views())

	// The handle is non-durable, so the journal hook is free for fault
	// injection: it runs only after every shard applied its slice.
	boom := errors.New("boom")
	l.sh.SetJournal(func(uint64, *instance.Applied) error { return boom })
	_, err = l.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-torn", "Torn", "NASA"}}}, nil)
	if err == nil {
		t.Fatal("journal failure must surface")
	}
	if !errors.Is(err, shard.ErrTorn) {
		t.Fatalf("post-mutation failure must wrap shard.ErrTorn, got: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost from the torn error chain: %v", err)
	}

	if _, err := l.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-after", "After", "ESA"}}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after torn fence: got %v, want ErrClosed", err)
	}
	rows, _, err := l.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
		t.Fatal("fenced sharded handle's answers drifted")
	}
	if got := viewFingerprint(l.Views()); got != wantViews {
		t.Fatal("fenced sharded handle's views drifted")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close on fenced sharded handle: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close must be a no-op nil, got %v", err)
	}
}

// TestCloseIdempotent pins Handle.Close's contract on the default handle
// ("live", P = 1) and at P = 2, durable or not: the first call tears down, every later call is a no-op
// returning nil, and writes after Close fail with ErrClosed.
func TestCloseIdempotent(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		durable bool
	}{
		{"live", 0, false},
		{"sharded", 2, false},
		{"live-durable", 0, true},
		{"sharded-durable", 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, m := movieSystem(t)
			db := m.Generate(workload.MoviesParams{Persons: 60, Movies: 60, LikesPerPerson: 3, NASAShare: 8, Seed: 8})
			var opts []OpenOption
			if tc.shards > 0 {
				opts = append(opts, WithShards(tc.shards))
			}
			if tc.durable {
				opts = append(opts, WithDurability(t.TempDir()))
			}
			h, err := sys.Open(db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-x", "X", "NASA"}}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := h.Close(); err != nil {
					t.Fatalf("Close #%d must be a no-op nil, got %v", i+2, err)
				}
			}
			if _, err := h.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-y", "Y", "ESA"}}}, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("write after Close: got %v, want ErrClosed", err)
			}
		})
	}
}

// TestCloseAfterFenceSkipsFinalCheckpoint: a fenced durable handle's
// in-memory state is AHEAD of the journal (the torn batch mutated the
// shard but never reached the log), so Close must not write its usual
// final checkpoint — recovery must come from the journal's truth. The
// checkpoint interval is disabled, so a recovery that replays exactly the
// k accepted batches proves no stale checkpoint was folded. (A clean
// close does fold one and replays nothing: the simulator's close op.)
func TestCloseAfterFenceSkipsFinalCheckpoint(t *testing.T) {
	const k = 5
	seed := func(t *testing.T, dir string) (*System, string, int) {
		t.Helper()
		sys, m := movieSystem(t)
		db := m.Generate(workload.MoviesParams{Persons: 80, Movies: 80, LikesPerPerson: 3, NASAShare: 8, Seed: 10})
		h, err := sys.Open(db, WithDurability(dir), WithCheckpointEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		l := h.(*Live)
		for i := 0; i < k; i++ {
			if _, err := l.ApplyDelta([]Op{{Rel: "person", Row: Tuple{fmt.Sprintf("d%d", i), "Durable", "NASA"}}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		want := viewFingerprint(l.Views())
		size := l.Size()

		op := desyncLive(t, l, db, "eng")
		if _, err := l.ApplyDelta(nil, []Op{op}); err == nil {
			t.Fatal("desynced delete must fence")
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close on the fenced handle: %v", err)
		}
		return sys, want, size
	}

	dir := t.TempDir()
	sys, want, size := seed(t, dir)
	h2, err := sys.Open(NewDatabase(sys.Schema), WithDurability(dir), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	l2 := h2.(*Live)
	if got := l2.Recovery().ReplayedEpochs; got != k {
		t.Fatalf("recovery replayed %d epochs, want %d — a final checkpoint was written despite the fence", got, k)
	}
	// The recovered state is the last PUBLISHED epoch: the fenced batch's
	// delete of a stored person never reached the journal and must be
	// gone.
	if got := viewFingerprint(l2.Views()); got != want {
		t.Fatal("recovered views differ from the last published epoch")
	}
	if l2.Size() != size {
		t.Fatalf("recovered size %d, want %d (torn batch leaked into recovery)", l2.Size(), size)
	}
}

// liveHeap returns the live heap after forcing collection twice (the
// first cycle runs queued finalizers — the snapshot backstop among them —
// the second collects what they released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestChurnMemoryBounded is the tier-1 leak regression behind the
// churn-memory gate (TestGateChurnMemory in gates_test.go): under
// closed-universe swap churn (|D| and the dictionary plateau by
// construction) with snapshots taken and closed along the way, live heap
// after thousands of epochs must stay near the post-warmup floor. Before
// the lifecycle layer, superseded epochs and their COW slack accumulated
// without bound.
func TestChurnMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("heap-plateau measurement: skipped in -short")
	}
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 1200, Movies: 1200, LikesPerPerson: 4, NASAShare: 10, Seed: 9})
	ch := workload.NewSwapChurn(m, db, workload.SwapChurnParams{Seed: 17})
	h, err := sys.Open(db, WithRetainEpochs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p := m.Fig1Plan()

	step := func(b int) {
		ins, del := ch.Batch(40)
		if _, err := h.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if b%8 == 0 {
			s := h.Snapshot()
			if _, _, err := s.Execute(p); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
	}
	const warmup, main = 150, 1200
	for b := 0; b < warmup; b++ {
		step(b)
	}
	floor := liveHeap()
	for b := 0; b < main; b++ {
		step(b)
	}
	steady := liveHeap()

	// Generous bound (the race detector and test-process noise inflate
	// absolute heap): catching the pre-lifecycle LINEAR growth, which at
	// 1200 epochs past warmup overshoots any constant slack.
	limit := 2*floor + 32<<20
	if steady > limit {
		t.Fatalf("heap grew from %d to %d after %d churn epochs (limit %d): epoch state is leaking", floor, steady, main, limit)
	}
	lc := h.Lifecycle()
	if lc.LiveSnapshots != 0 {
		t.Fatalf("%d snapshots leaked", lc.LiveSnapshots)
	}
	if lc.ReclaimedEpochs == 0 {
		t.Fatal("no epochs reclaimed: the retention ring is not releasing")
	}
}

// TestSnapshotFinalizerBackstop: snapshots dropped without Close are
// released by the GC finalizer — best-effort, but it must eventually fire
// and both release the epoch pins and count itself, so leaks are
// observable and superseded epochs still die.
func TestSnapshotFinalizerBackstop(t *testing.T) {
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 60, Movies: 60, LikesPerPerson: 3, NASAShare: 8, Seed: 12})
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const dropped = 8
	func() {
		for i := 0; i < dropped; i++ {
			_ = h.Snapshot() // deliberately not closed
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		lc := h.Lifecycle()
		if lc.FinalizedSnapshots >= dropped && lc.LiveSnapshots == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("finalizer backstop never caught up: %+v", lc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
