package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durableEngines enumerates the shard counts the durable tests cover:
// "unsharded" is the default handle (no WithShards option, P = 1).
var durableEngines = []struct {
	name string
	opts []OpenOption
}{
	{"unsharded", nil},
	{"sharded", []OpenOption{WithShards(8)}},
}

// applyBoth drives one batch into the durable handle and the in-memory
// oracle, failing the test on any skew between the two DeltaStats.
func applyBoth(t *testing.T, h, oracle Handle, ins, del []Op) {
	t.Helper()
	sh, err := h.ApplyDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	so, err := oracle.ApplyDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Inserted != so.Inserted || sh.Deleted != so.Deleted {
		t.Fatalf("durable handle applied %d+%d, oracle %d+%d", sh.Inserted, sh.Deleted, so.Inserted, so.Deleted)
	}
}

// assertHandlesEqual differentially compares a recovered handle against
// the oracle: epoch number, |D|, every view extent, the statistics (all
// four maps, exactly), and exhaustive point-fetch probes over the
// workload's uid space.
func assertHandlesEqual(t *testing.T, w *workload.Sharded, got, want Handle, users int) {
	t.Helper()
	sg, sw := got.Snapshot(), want.Snapshot()
	if sg.Epoch() != sw.Epoch() {
		t.Fatalf("recovered epoch %d, oracle at %d", sg.Epoch(), sw.Epoch())
	}
	if sg.Size() != sw.Size() {
		t.Fatalf("recovered |D| = %d, oracle %d", sg.Size(), sw.Size())
	}
	if g, o := viewFingerprint(sg.Views()), viewFingerprint(sw.Views()); g != o {
		t.Fatalf("recovered views diverge from oracle:\n%s\nvs\n%s", g, o)
	}
	stg, _ := got.Stats()
	sto, _ := want.Stats()
	if !reflect.DeepEqual(stg, sto) {
		t.Fatalf("recovered stats diverge from oracle:\n%+v\nvs\n%+v", *stg, *sto)
	}
	acct := w.Acct
	for i := 0; i < users; i++ {
		key := Tuple{w.UID(i)}
		rg, err := sg.Fetch(acct, key)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := sw.Fetch(acct, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(rg) != len(ro) {
			t.Fatalf("fetch(%s): recovered %d rows, oracle %d", w.UID(i), len(rg), len(ro))
		}
	}
}

// TestDurableRoundTrip pins the clean path at P = 1 and P = 8: open a fresh
// durable dir, churn with periodic checkpoints, Close (final checkpoint),
// reopen with an empty database, and differentially compare against an
// in-memory oracle fed the identical batches — then keep writing through
// the recovered handle and compare again.
func TestDurableRoundTrip(t *testing.T) {
	for _, eng := range durableEngines {
		t.Run(eng.name, func(t *testing.T) {
			const users = 40
			w, sys, db := shardedWorkload(t, users, 6)
			mirror := db.Clone()
			oracle, err := sys.Open(db.Clone(), eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dopts := append([]OpenOption{WithDurability(dir), WithCheckpointEvery(4)}, eng.opts...)
			h, err := sys.Open(db, dopts...)
			if err != nil {
				t.Fatal(err)
			}
			ch := w.NewChurn(mirror, 99)
			for b := 0; b < 11; b++ {
				ins, del := ch.Batch(12)
				applyBoth(t, h, oracle, ins, del)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}

			h2, err := sys.Open(NewDatabase(sys.Schema), dopts...)
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			assertHandlesEqual(t, w, h2, oracle, users)
			rec := h2.(*Live).Recovery()
			if rec.ReplayedEpochs != 0 || rec.CheckpointSeq != 11 {
				t.Fatalf("clean close must recover from the final checkpoint alone, got %+v", rec)
			}

			// The recovered handle is a full writer: keep churning.
			for b := 0; b < 5; b++ {
				ins, del := ch.Batch(12)
				applyBoth(t, h2, oracle, ins, del)
			}
			assertHandlesEqual(t, w, h2, oracle, users)
		})
	}
}

// TestDurableReplay pins the unclean path: the handle is abandoned without
// Close (no final checkpoint), so the next open must REPLAY the journal
// suffix — all of it, since periodic checkpoints are disabled — and land
// on a state identical to the oracle's.
func TestDurableReplay(t *testing.T) {
	for _, eng := range durableEngines {
		t.Run(eng.name, func(t *testing.T) {
			const users = 40
			w, sys, db := shardedWorkload(t, users, 6)
			mirror := db.Clone()
			oracle, err := sys.Open(db.Clone(), eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dopts := append([]OpenOption{WithDurability(dir), WithCheckpointEvery(0)}, eng.opts...)
			h, err := sys.Open(db, dopts...)
			if err != nil {
				t.Fatal(err)
			}
			ch := w.NewChurn(mirror, 7)
			for b := 0; b < 9; b++ {
				ins, del := ch.Batch(10)
				applyBoth(t, h, oracle, ins, del)
			}
			// No Close: every batch was fsynced before its ack, so the
			// journal alone carries the whole history.

			h2, err := sys.Open(NewDatabase(sys.Schema), dopts...)
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			assertHandlesEqual(t, w, h2, oracle, users)
			rec := h2.(*Live).Recovery()
			if rec.CheckpointSeq != 0 || rec.ReplayedEpochs != 9 {
				t.Fatalf("expected full replay of 9 epochs from the opening checkpoint, got %+v", rec)
			}
			if rec.TornTail {
				t.Fatalf("no torn tail was written, got %+v", rec)
			}
		})
	}
}

// TestDurableTornTail truncates the live segment mid-record and checks
// recovery lands exactly on the last complete epoch.
func TestDurableTornTail(t *testing.T) {
	const users = 30
	w, sys, db := shardedWorkload(t, users, 5)
	mirror := db.Clone()
	oracle, err := sys.Open(db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dopts := []OpenOption{WithDurability(dir), WithCheckpointEvery(0)}
	h, err := sys.Open(db, dopts...)
	if err != nil {
		t.Fatal(err)
	}
	ch := w.NewChurn(mirror, 3)
	const batches = 6
	for b := 0; b < batches; b++ {
		ins, del := ch.Batch(8)
		if _, err := h.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the tail: chop 3 bytes off the only segment, cutting the final
	// record mid-frame, as a crash during the last write would.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	h2, err := sys.Open(NewDatabase(sys.Schema), dopts...)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	rec := h2.(*Live).Recovery()
	if !rec.TornTail {
		t.Fatalf("truncated segment must report a torn tail, got %+v", rec)
	}
	if got := h2.Snapshot().Epoch(); got != batches-1 {
		t.Fatalf("recovered epoch %d, want last complete epoch %d", got, batches-1)
	}
	if rec.ReplayedEpochs != batches-1 {
		t.Fatalf("expected %d replayed epochs, got %+v", batches-1, rec)
	}
}

// TestDurableCrossEngine pins that every shard count shares one durable
// format: state written at P = 8 (no view extents in its checkpoints)
// recovers at the default P = 1, and state written at P = 1 (extents
// included) recovers at P = 4, identical either way — views, fetches and
// statistics — to one in-memory oracle at P = 1.
func TestDurableCrossEngine(t *testing.T) {
	cases := []struct {
		name          string
		write, reopen []OpenOption
	}{
		{"sharded-to-unsharded", []OpenOption{WithShards(8)}, nil},
		{"unsharded-to-sharded", nil, []OpenOption{WithShards(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const users = 30
			w, sys, db := shardedWorkload(t, users, 5)
			mirror := db.Clone()
			oracle, err := sys.Open(db.Clone())
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			h, err := sys.Open(db, append([]OpenOption{WithDurability(dir), WithCheckpointEvery(3)}, tc.write...)...)
			if err != nil {
				t.Fatal(err)
			}
			ch := w.NewChurn(mirror, 21)
			for b := 0; b < 7; b++ {
				ins, del := ch.Batch(9)
				applyBoth(t, h, oracle, ins, del)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			h2, err := sys.Open(NewDatabase(sys.Schema), append([]OpenOption{WithDurability(dir)}, tc.reopen...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			assertHandlesEqual(t, w, h2, oracle, users)
		})
	}
}

// TestDurableGuards pins the refusal paths: a foreign system's directory
// (different view set) must not open, and recovery demands an empty
// database.
func TestDurableGuards(t *testing.T) {
	w, sys, db := shardedWorkload(t, 20, 4)
	dir := t.TempDir()
	h, err := sys.Open(db, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Same schema, different view set: the fingerprint in every durable
	// file header must reject the open.
	views := w.Views()
	delete(views, "VPairs")
	other, err := NewSystem(w.Schema, w.Access, views, w.M)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(NewDatabase(other.Schema), WithDurability(dir)); err == nil ||
		!strings.Contains(err.Error(), "view set") {
		t.Fatalf("foreign view set must be rejected, got %v", err)
	}

	// Recovery consumes the checkpointed rows; a non-empty database means
	// the caller is about to lose data silently. Refuse.
	if _, err := sys.Open(w.Generate(5, 2, 1), WithDurability(dir)); err == nil ||
		!strings.Contains(err.Error(), "empty database") {
		t.Fatalf("non-empty database must be rejected on recovery, got %v", err)
	}
}

// TestCheckpointRows pins the restore path's checks on checkpointed rows,
// which the engine adopts without re-interning: good tables pass through
// as they are, copies included, and an unknown or repeated relation, a
// row of the wrong arity or an ID beyond the restored dictionary is an
// error, never a silently wrong engine.
func TestCheckpointRows(t *testing.T) {
	s := NewSchema(NewRelation("R", "A", "B", "C"), NewRelation("S", "X"))
	good := []wal.TableRows{
		{Rel: "R", Rows: [][]uint32{{0, 1, 2}, {0, 1, 2}, {2, 1, 0}}},
		{Rel: "S", Rows: [][]uint32{{3}}},
	}
	rows, err := checkpointRows(s, 4, good)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows["R"]) != 3 || len(rows["S"]) != 1 {
		t.Fatalf("restored %d R rows and %d S rows, want 3 and 1", len(rows["R"]), len(rows["S"]))
	}
	for what, tables := range map[string][]wal.TableRows{
		"unknown relation":         {{Rel: "nope"}},
		"repeated relation":        {{Rel: "S"}, {Rel: "S"}},
		"arity mismatch":           {{Rel: "R", Rows: [][]uint32{{0, 1}}}},
		"ID beyond the dictionary": {{Rel: "R", Rows: [][]uint32{{0, 1, 4}}}},
	} {
		if _, err := checkpointRows(s, 4, tables); err == nil {
			t.Errorf("%s: checkpoint rows accepted", what)
		}
	}
}

// TestRestoreRejectsViewIDsBeyondDictionary: a checkpoint whose CRC is
// valid but one of whose counted view rows names an ID beyond the restored
// dictionary must fail to open — the engine would serve the row, and the
// first read would decode past the dictionary's end.
func TestRestoreRejectsViewIDsBeyondDictionary(t *testing.T) {
	w, sys, db := shardedWorkload(t, 30, 4)
	dir := t.TempDir()
	h, err := sys.Open(db, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	ch := w.NewChurn(db.Clone(), 5)
	for b := 0; b < 3; b++ {
		ins, del := ch.Batch(10)
		if _, err := h.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}

	log, rec, err := wal.Open(dir, sys.walOptions())
	if err != nil {
		t.Fatal(err)
	}
	ck := rec.Checkpoint
	corrupted := false
	for _, v := range ck.Views {
		if len(v.Rows) > 0 {
			v.Rows[0][0] = uint32(len(ck.Dict)) + 7
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("fixture too small: the checkpoint holds no view rows")
	}
	dict, ok := intern.FromStrings(ck.Dict)
	if !ok {
		t.Fatal("checkpoint dictionary has duplicates")
	}
	if err := log.WriteCheckpoint(dict, ck); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := sys.Open(NewDatabase(sys.Schema), WithDurability(dir))
	if err == nil {
		h2.Close()
		t.Fatal("a checkpoint with an out-of-range view ID opened")
	}
	if !strings.Contains(err.Error(), "beyond dictionary length") {
		t.Fatalf("open failed for another reason: %v", err)
	}
}
