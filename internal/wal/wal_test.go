package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/instance"
	"repro/internal/intern"
)

var testOpts = Options{SchemaFP: Fingerprint("schema"), ViewsFP: Fingerprint("views")}

// mkApplied builds a physical batch over rel "R" with the given ID rows.
func mkApplied(deletes, inserts [][]uint32) *instance.Applied {
	a := &instance.Applied{}
	for _, r := range deletes {
		a.Deleted = append(a.Deleted, instance.AppliedOp{Rel: "R", IDs: r})
	}
	for _, r := range inserts {
		a.Inserted = append(a.Inserted, instance.AppliedOp{Rel: "R", IDs: r})
	}
	return a
}

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{
		Seq:  42,
		Dict: []string{"", "a", "weird \x00 value"},
		Rels: []RelMeta{{Name: "R", Arity: 2}, {Name: "S", Arity: 0}},
		Deletes: []Op{
			{Rel: 0, Row: []uint32{7, 9}},
			{Rel: 1, Row: nil},
		},
		Inserts: []Op{{Rel: 0, Row: []uint32{0, 1 << 31}}},
	}
	payload := EncodeRecord(nil, r)
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != r.Seq || len(got.Dict) != 3 || got.Dict[2] != r.Dict[2] {
		t.Fatalf("decoded %+v", got)
	}
	if len(got.Deletes) != 2 || len(got.Inserts) != 1 || got.Inserts[0].Row[1] != 1<<31 {
		t.Fatalf("decoded ops %+v / %+v", got.Deletes, got.Inserts)
	}
	if got.Rels[1].Arity != 0 || len(got.Deletes[1].Row) != 0 {
		t.Fatal("zero-arity op lost")
	}
	// Trailing garbage after a valid record is an error.
	if _, err := DecodeRecord(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// writeFixture creates a durable dir with an initial checkpoint and n
// appended records (each growing the dictionary and touching R), and
// returns the dict used.
func writeFixture(t *testing.T, dir string, n int, o Options) *intern.Dict {
	t.Helper()
	l, rec, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir must have nil Recovered")
	}
	dict := intern.NewDict()
	dict.ID("base0")
	dict.ID("base1")
	ck := &Checkpoint{
		Seq:    0,
		Tables: []TableRows{{Rel: "R", Rows: [][]uint32{{0, 1}}}},
	}
	if err := l.WriteCheckpoint(dict, ck); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		a := dict.ID(fmt.Sprintf("v%d", i)) // per-batch dictionary growth
		if err := l.Append(dict, uint64(i), mkApplied(nil, [][]uint32{{0, a}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dict
}

func TestLogRoundTripAndResume(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, 5, testOpts)

	l, rec, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Checkpoint.Seq != 0 || rec.TornTail {
		t.Fatalf("recovered %+v", rec)
	}
	if len(rec.Checkpoint.Dict) != 2 || len(rec.Checkpoint.Tables) != 1 || len(rec.Checkpoint.Tables[0].Rows) != 1 {
		t.Fatalf("checkpoint contents %+v", rec.Checkpoint)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) || len(r.Dict) != 1 || r.Dict[0] != fmt.Sprintf("v%d", i+1) {
			t.Fatalf("record %d: %+v", i, r)
		}
		if len(r.Inserts) != 1 || r.Rels[r.Inserts[0].Rel].Name != "R" {
			t.Fatalf("record %d ops: %+v", i, r)
		}
	}

	// Resume: rebuild the dict exactly as a replayer would, append more.
	dict, ok := intern.FromStrings(rec.Checkpoint.Dict)
	if !ok {
		t.Fatal("checkpoint dict corrupt")
	}
	for _, r := range rec.Records {
		for _, s := range r.Dict {
			dict.ID(s)
		}
	}
	if l.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6", l.NextSeq())
	}
	if err := l.Append(dict, 6, mkApplied([][]uint32{{0, 1}}, nil)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order appends are rejected.
	if err := l.Append(dict, 9, mkApplied(nil, nil)); err == nil {
		t.Fatal("out-of-order append must fail")
	}
	// Checkpoint at the tip, then one more record; reopen sees exactly them.
	ck := &Checkpoint{Seq: 6, Tables: []TableRows{{Rel: "R", Rows: nil}}}
	if err := l.WriteCheckpoint(dict, ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Dict) != dict.Len() {
		t.Fatalf("checkpoint dict hwm %d, want %d", len(ck.Dict), dict.Len())
	}
	if err := l.Append(dict, 7, mkApplied(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err = Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Seq != 6 || len(rec.Records) != 1 || rec.Records[0].Seq != 7 {
		t.Fatalf("after re-checkpoint: ck %d, %d records", rec.Checkpoint.Seq, len(rec.Records))
	}
	// Empty batches journal too (epoch numbering never drifts).
	if len(rec.Records[0].Inserts)+len(rec.Records[0].Deletes) != 0 {
		t.Fatal("empty batch must journal as empty")
	}
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, 1, testOpts)
	bad := testOpts
	bad.SchemaFP++
	if _, _, err := Open(dir, bad); err == nil {
		t.Fatal("schema fingerprint mismatch must fail")
	}
	bad = testOpts
	bad.ViewsFP++
	if _, _, err := Open(dir, bad); err == nil {
		t.Fatal("view fingerprint mismatch must fail")
	}
}

// TestTornTailEveryOffset is the exhaustive torn-tail check: the final
// segment truncated at EVERY possible byte offset must recover to exactly
// the last record fully contained in the prefix — never an error, never a
// partial batch. A segment roll cut at every byte of its header must
// recover too.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	writeFixture(t, base, 4, testOpts)

	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	var seg string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(base, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
		if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			if seg != "" {
				t.Fatalf("fixture has several segments: %s and %s", seg, e.Name())
			}
			seg = e.Name()
		}
	}
	segBytes := files[seg]

	// Record boundaries inside the segment, for the expected-count oracle.
	var bounds []int // bounds[i] = offset just past record i
	{
		recs, good := ScanRecords(segBytes[fileHeader:])
		if len(recs) != 4 || fileHeader+good != len(segBytes) {
			t.Fatalf("fixture segment: %d records, good %d of %d", len(recs), good, len(segBytes))
		}
		off := fileHeader
		for _, r := range recs {
			off += frameHeader + len(EncodeRecord(nil, r))
			bounds = append(bounds, off)
		}
	}
	expect := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if cut >= b {
				n++
			}
		}
		return n
	}

	for cut := fileHeader; cut <= len(segBytes); cut++ {
		dir := t.TempDir()
		for name, b := range files {
			if name == seg {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir, testOpts)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := expect(cut)
		if len(rec.Records) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), want)
		}
		lastGood := fileHeader
		if want > 0 {
			lastGood = bounds[want-1]
		}
		wantTorn := cut != lastGood
		if rec.TornTail != wantTorn {
			t.Fatalf("cut %d: TornTail = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		// The tail was truncated: appending and reopening stays contiguous.
		dict, _ := intern.FromStrings(rec.Checkpoint.Dict)
		for _, r := range rec.Records {
			for _, s := range r.Dict {
				dict.ID(s)
			}
		}
		if err := l.Append(dict, uint64(want)+1, mkApplied(nil, nil)); err != nil {
			t.Fatalf("cut %d: resume append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2, err := Open(dir, testOpts)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(rec2.Records) != want+1 || rec2.TornTail {
			t.Fatalf("cut %d: after resume, %d records (torn=%v), want %d", cut, len(rec2.Records), rec2.TornTail, want+1)
		}
	}

	// A crash mid-roll leaves a checkpoint installed and the segment rolled
	// after it cut at some byte of its header, under its temporary name.
	// Every cut must recover the checkpoint, prune the leftover and resume
	// appending right after it: after the initial checkpoint (no segment
	// at all) and after checkpoint 4 (an older segment remains).
	l, rec, err := Open(base, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	dict, _ := intern.FromStrings(rec.Checkpoint.Dict)
	for _, r := range rec.Records {
		for _, s := range r.Dict {
			dict.ID(s)
		}
	}
	if err := l.WriteCheckpoint(dict, &Checkpoint{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, roll := range []struct {
		ckpt uint64
		keep func(name string) bool
	}{
		{0, func(name string) bool { return name == ckptName(0) }},
		{4, func(name string) bool { return name != segName(5) }},
	} {
		seg := segName(roll.ckpt + 1)
		header, err := os.ReadFile(filepath.Join(base, seg))
		if err != nil {
			t.Fatal(err)
		}
		header = header[:fileHeader]
		for cut := 0; cut <= fileHeader; cut++ {
			dir := t.TempDir()
			for _, e := range entries {
				if !roll.keep(e.Name()) {
					continue
				}
				b, err := os.ReadFile(filepath.Join(base, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, seg+".tmp"), header[:cut], 0o666); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir, testOpts)
			if err != nil {
				t.Fatalf("roll after %d, cut %d: %v", roll.ckpt, cut, err)
			}
			if rec.Checkpoint.Seq != roll.ckpt || len(rec.Records) != 0 || rec.TornTail {
				t.Fatalf("roll after %d, cut %d: recovered checkpoint %d + %d records (torn=%v)",
					roll.ckpt, cut, rec.Checkpoint.Seq, len(rec.Records), rec.TornTail)
			}
			if _, err := os.Stat(filepath.Join(dir, seg+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("roll after %d, cut %d: leftover segment not pruned (%v)", roll.ckpt, cut, err)
			}
			d, _ := intern.FromStrings(rec.Checkpoint.Dict)
			if err := l.Append(d, roll.ckpt+1, mkApplied(nil, nil)); err != nil {
				t.Fatalf("roll after %d, cut %d: resume append: %v", roll.ckpt, cut, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec2, err := Open(dir, testOpts)
			if err != nil {
				t.Fatalf("roll after %d, cut %d: reopen: %v", roll.ckpt, cut, err)
			}
			if len(rec2.Records) != 1 || rec2.Records[0].Seq != roll.ckpt+1 {
				t.Fatalf("roll after %d, cut %d: after resume, %d records, want seq %d only",
					roll.ckpt, cut, len(rec2.Records), roll.ckpt+1)
			}
		}
	}

	// A checkpoint cut before its rename was never installed: Open
	// recovers from the previous one and deletes the leftover.
	stale := filepath.Join(base, ckptName(9)+".tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	l, rec, err = Open(base, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Checkpoint.Seq != 4 {
		t.Fatalf("recovered checkpoint %d, want 4", rec.Checkpoint.Seq)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint leftover not pruned (%v)", err)
	}
}

// TestCheckpointFallback: a bit-rotted newest checkpoint falls back to the
// previous generation, whose log suffix is retained by the pruner.
func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	dict := intern.NewDict()
	if err := l.WriteCheckpoint(dict, &Checkpoint{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := l.Append(dict, uint64(i), mkApplied(nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(dict, &Checkpoint{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(dict, 3, mkApplied(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// One generation of slack: ckpt-0 and its suffix must still exist.
	if _, err := os.Stat(filepath.Join(dir, ckptName(0))); err != nil {
		t.Fatal("previous checkpoint generation was pruned")
	}
	// Rot the newest checkpoint: recovery falls back to seq 0 and replays
	// the full suffix.
	path := filepath.Join(dir, ckptName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Seq != 0 || len(rec.Records) != 3 {
		t.Fatalf("fallback recovered ck %d with %d records", rec.Checkpoint.Seq, len(rec.Records))
	}
	// Rot the only remaining checkpoint too: now unrecoverable, loudly.
	if err := os.Remove(filepath.Join(dir, ckptName(0))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testOpts); err == nil {
		t.Fatal("no usable checkpoint must fail")
	}
}

// legacyCheckpoint is the checkpoint layout that also carried the cost
// model's statistics and their drift state (StatsVer, StatsChurn, Stats).
type legacyCheckpoint struct {
	Seq        uint64
	StatsVer   uint64
	StatsChurn int
	Dict       []string
	Tables     []TableRows
	Views      []ViewExtent
	Stats      *legacyStats
}

type legacyStats struct {
	RelRows      map[string]int
	RelDistinct  map[string]map[string]int
	ViewRows     map[string]int
	ViewDistinct map[string][]int
}

// TestLegacyCheckpointDecodes: a checkpoint file written with the
// statistics fields still recovers, with its tables, view extents and
// dictionary intact — gob skips the stream fields Checkpoint lacks.
func TestLegacyCheckpointDecodes(t *testing.T) {
	dir := t.TempDir()
	old := &legacyCheckpoint{
		Seq:        3,
		StatsVer:   7,
		StatsChurn: 40,
		Dict:       []string{"a", "b", "c"},
		Tables:     []TableRows{{Rel: "R", Rows: [][]uint32{{0, 1}, {2, 1}}}},
		Views:      []ViewExtent{{Name: "V", Rows: [][]uint32{{1}}, Counts: []int{2}}},
		Stats: &legacyStats{
			RelRows:      map[string]int{"R": 2},
			RelDistinct:  map[string]map[string]int{"R": {"A": 2, "B": 1}},
			ViewRows:     map[string]int{"V": 1},
			ViewDistinct: map[string][]int{"V": {1}},
		},
	}
	var buf bytes.Buffer
	buf.Write(fileHeaderBytes(ckptMagic, testOpts.SchemaFP, testOpts.ViewsFP, old.Seq))
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	b := binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(buf.Bytes(), crcTable))
	if err := os.WriteFile(filepath.Join(dir, ckptName(old.Seq)), b, 0o666); err != nil {
		t.Fatal(err)
	}

	l, rec, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ck := rec.Checkpoint
	if ck.Seq != old.Seq || !reflect.DeepEqual(ck.Dict, old.Dict) ||
		!reflect.DeepEqual(ck.Tables, old.Tables) || !reflect.DeepEqual(ck.Views, old.Views) {
		t.Fatalf("legacy checkpoint decoded as %+v, want %+v", ck, old)
	}
	if len(rec.Records) != 0 || l.NextSeq() != old.Seq+1 {
		t.Fatalf("recovered %d records, next seq %d", len(rec.Records), l.NextSeq())
	}
}
