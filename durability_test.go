package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/wal"
)

// TestDurableTornTail truncates the live segment mid-record and checks
// recovery lands exactly on the last complete epoch.
func TestDurableTornTail(t *testing.T) {
	const users = 30
	w, sys, db := shardedWorkload(t, users, 5)
	ch := w.NewChurn(db, 3)
	dir := t.TempDir()
	dopts := []OpenOption{WithDurability(dir), WithCheckpointEvery(0)}
	h, err := sys.Open(db, dopts...)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 6
	for b := 0; b < batches; b++ {
		ins, del := ch.Batch(8)
		if _, err := h.ApplyDelta(ins, del); err != nil {
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
