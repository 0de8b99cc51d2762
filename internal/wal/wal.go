// Package wal is the durability subsystem: a write-ahead log that journals
// every accepted ApplyDelta batch keyed by its epoch sequence number, plus
// checkpoints that serialize a whole epoch (dictionary, ID shadows, view
// extents, statistics) so a restart is "load latest checkpoint, replay the
// log suffix" instead of re-interning and re-materializing everything.
//
// On-disk layout (one directory per durable handle):
//
//	wal-<firstSeq>.log    segments of CRC-framed records (see Record)
//	ckpt-<seq>.ckpt       checkpoints
//
// Both appear atomically (written to a .tmp file, renamed into place, then
// the directory fsynced); Open prunes .tmp files a crash left behind.
//
// Both file kinds carry a header with the schema and view-set fingerprints
// of the system that wrote them; opening with a different system is an
// error, never a silent misreplay.
//
// The log relies on an ID-determinism invariant: interned IDs are dense
// and assigned in first-intern order, so journaling each batch's
// dictionary GROWTH (the strings in [hwm, len) at append time, where hwm
// is the journal's high-water mark) lets replay re-assign the exact same
// IDs by re-interning those strings in journal order. Checkpoints store
// the prefix [0, hwm) only — strings interned by readers after the last
// append are re-journaled by the next record instead.
package wal

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/obs"
)

// Options configure a durable directory.
type Options struct {
	SchemaFP uint64 // fingerprint of the schema the log serializes IDs for
	ViewsFP  uint64 // fingerprint of the maintained view set
}

// Fingerprint hashes the given parts into the header fingerprints.
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Recovered is what Open found in a non-fresh directory: the newest valid
// checkpoint and the contiguous record suffix after it, ready to replay.
type Recovered struct {
	Checkpoint *Checkpoint
	Records    []*Record // seq Checkpoint.Seq+1 .. Checkpoint.Seq+len, in order
	TornTail   bool      // an incomplete tail was discarded (and truncated)
}

// Log is an open write-ahead log. One writer at a time: the serving
// handle's write lock already serializes ApplyDelta, and the log's own
// mutex guards every method for callers outside that lock. Every Append
// fsyncs before it returns, so an acked record is durable and the active
// segment never holds unsynced writes.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // active segment
	seq    uint64   // next record sequence number
	base   uint64   // newest installed checkpoint's sequence number
	hwm    int      // dictionary IDs < hwm are durably journaled
	fresh  bool     // no checkpoint written yet (Append disallowed)
	err    error    // first write/sync failure; poisons the log
	closed bool
	buf    []byte

	met *obs.WALMetrics // durability instruments (nil when disabled)
}

// SetMetrics installs the durability instruments: append/fsync and
// checkpoint latency histograms, plus the fence-event counter bumped
// when a write failure poisons the log. Call before the first Append
// (the serving layer installs them at open, under its write lock).
func (l *Log) SetMetrics(m *obs.WALMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = m
}

// poisonLocked records the log's FIRST poison error and counts the
// fence event; later calls keep the original error. Callers hold l.mu.
func (l *Log) poisonLocked(err error) error {
	if l.err == nil {
		l.err = err
		if l.met != nil {
			l.met.Fences.Add(1)
		}
	}
	return l.err
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }
func ckptName(seq uint64) string     { return fmt.Sprintf("ckpt-%016x.ckpt", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%016x", &seq); err != nil || len(mid) != 16 {
		return 0, false
	}
	return seq, true
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open opens (or initializes) a durable directory. A directory with no
// checkpoint is fresh: Recovered is nil and the caller MUST write the
// initial checkpoint (the opening epoch) before the first Append. A
// non-fresh directory yields the newest valid checkpoint plus the record
// suffix to replay; the log resumes appending after the last good record.
func Open(dir string, o Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var ckptSeqs, segSeqs []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A checkpoint or segment a crash cut short before its rename:
			// never installed, so never part of the recovery state.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, err
			}
			continue
		}
		if seq, ok := parseSeq(e.Name(), "ckpt-", ".ckpt"); ok {
			ckptSeqs = append(ckptSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segSeqs = append(segSeqs, seq)
		}
	}
	l := &Log{dir: dir, opts: o}

	if len(ckptSeqs) == 0 {
		if len(segSeqs) > 0 {
			return nil, nil, fmt.Errorf("wal: %s has log segments but no checkpoint", dir)
		}
		l.fresh = true
		return l, nil, nil
	}

	// Newest structurally valid checkpoint wins; a corrupt newest (torn
	// machine, bad disk) falls back to the previous one, whose log suffix
	// is still present until the NEXT checkpoint prunes it.
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	var ck *Checkpoint
	var ckErr error
	for _, seq := range ckptSeqs {
		c, err := readCheckpointFile(filepath.Join(dir, ckptName(seq)), o)
		if err == nil {
			ck = c
			break
		}
		if ckErr == nil {
			ckErr = err
		}
	}
	if ck == nil {
		return nil, nil, fmt.Errorf("wal: %s has no usable checkpoint: %w", dir, ckErr)
	}

	// Read every segment in firstSeq order and concatenate their records.
	// Only the final segment may end in a torn or corrupt tail (earlier
	// segments are fsynced before the roll); it is truncated to the last
	// complete record so resumed appends continue from a clean boundary.
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	rec := &Recovered{Checkpoint: ck}
	var lastPath string
	var lastGood int
	var lastFirst uint64
	for i, first := range segSeqs {
		path := filepath.Join(dir, segName(first))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if _, err := parseFileHeader(b, walMagic, o); err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", path, err)
		}
		recs, good := ScanRecords(b[fileHeader:])
		if fileHeader+good != len(b) {
			if i != len(segSeqs)-1 {
				return nil, nil, fmt.Errorf("wal: non-final segment %s is corrupt at offset %d", path, fileHeader+good)
			}
			rec.TornTail = true
		}
		for _, r := range recs {
			if r.Seq <= ck.Seq {
				continue // already folded into the checkpoint
			}
			if want := ck.Seq + uint64(len(rec.Records)) + 1; r.Seq != want {
				return nil, nil, fmt.Errorf("wal: record gap: got seq %d, want %d", r.Seq, want)
			}
			rec.Records = append(rec.Records, r)
		}
		lastPath, lastGood, lastFirst = path, fileHeader+good, first
	}
	if rec.TornTail {
		if err := os.Truncate(lastPath, int64(lastGood)); err != nil {
			return nil, nil, err
		}
	}

	l.seq = ck.Seq + uint64(len(rec.Records)) + 1
	l.base = ck.Seq
	l.hwm = len(ck.Dict)
	for _, r := range rec.Records {
		l.hwm += len(r.Dict)
	}
	if len(rec.Records) == 0 && (lastPath == "" || lastFirst != ck.Seq+1) {
		// A crash after the checkpoint's install but before its segment's
		// rename: roll the segment now, so appends after the checkpoint
		// start one, as they would have.
		err = l.rollSegmentLocked(ck.Seq + 1)
	} else {
		l.f, err = os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o666)
	}
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// Append journals one accepted batch: the epoch sequence number it will
// publish, the dictionary growth since the previous append, and the
// physically applied ops. seq must be exactly the next sequence number —
// the log and the handle's epoch counter advance in lockstep. The record
// is fsynced before Append returns; a failed write or fsync poisons the
// log.
func (l *Log) Append(dict *intern.Dict, seq uint64, a *instance.Applied) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.err != nil:
		return l.err
	case l.closed:
		return fmt.Errorf("wal: log is closed")
	case l.fresh:
		return fmt.Errorf("wal: append before the initial checkpoint")
	case seq != l.seq:
		return fmt.Errorf("wal: append out of order: got seq %d, want %d", seq, l.seq)
	}
	var t0 time.Time
	if l.met != nil {
		t0 = time.Now()
	}
	n := dict.Len()
	r := &Record{Seq: seq, Dict: dict.StringsRange(l.hwm, n)}
	relIdx := make(map[string]int)
	relOf := func(op instance.AppliedOp) int {
		i, ok := relIdx[op.Rel]
		if !ok {
			i = len(r.Rels)
			relIdx[op.Rel] = i
			r.Rels = append(r.Rels, RelMeta{Name: op.Rel, Arity: len(op.IDs)})
		}
		return i
	}
	for _, op := range a.Deleted {
		r.Deletes = append(r.Deletes, Op{Rel: relOf(op), Row: op.IDs})
	}
	for _, op := range a.Inserted {
		r.Inserts = append(r.Inserts, Op{Rel: relOf(op), Row: op.IDs})
	}
	l.buf = AppendFrame(l.buf[:0], EncodeRecord(nil, r))
	if _, err := l.f.Write(l.buf); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: append: %w", err))
	}
	var ts time.Time
	if l.met != nil {
		ts = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
	}
	l.seq++
	l.hwm = n
	if l.met != nil {
		// Append latency covers encode + write + fsync.
		l.met.Fsyncs.Add(1)
		l.met.FsyncLatency.Observe(time.Since(ts))
		l.met.Appends.Add(1)
		l.met.AppendLatency.Observe(time.Since(t0))
	}
	return nil
}

// WriteCheckpoint durably serializes the CURRENT epoch (ck.Seq must be the
// last appended sequence number; on a fresh log it seeds the sequence) and
// installs it as the recovery base: the active segment is flushed, the
// checkpoint is written atomically (tmp + rename + dir fsync), a new
// segment is rolled, and superseded segments and checkpoints are pruned.
// ck.Dict is filled by the log with the journaled prefix [0, hwm).
func (l *Log) WriteCheckpoint(dict *intern.Dict, ck *Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.fresh {
		l.hwm = dict.Len()
		l.seq = ck.Seq + 1
	} else if ck.Seq != l.seq-1 {
		return fmt.Errorf("wal: checkpoint at seq %d, log is at %d", ck.Seq, l.seq-1)
	}
	ck.Dict = dict.StringsRange(0, l.hwm)
	var t0 time.Time
	if l.met != nil {
		t0 = time.Now()
	}
	if err := l.writeCheckpointLocked(ck); err != nil {
		return l.poisonLocked(err)
	}
	if l.met != nil {
		l.met.Checkpoints.Add(1)
		l.met.CheckpointDur.Observe(time.Since(t0))
	}
	l.fresh = false
	return nil
}

func (l *Log) writeCheckpointLocked(ck *Checkpoint) error {
	// 1. Everything the checkpoint supersedes must be durable first, so a
	// crash at any point below still recovers (from the old base if the
	// new checkpoint is not fully installed, from the new one after).
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync before checkpoint: %w", err)
		}
	}

	// 2. Atomic checkpoint install.
	b, err := encodeCheckpoint(ck, l.opts)
	if err != nil {
		return err
	}
	final := filepath.Join(l.dir, ckptName(ck.Seq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// 3. Roll a fresh segment for the records after the checkpoint.
	if err := l.rollSegmentLocked(ck.Seq + 1); err != nil {
		return err
	}

	// 4. Prune with one generation of slack: the PREVIOUS base checkpoint
	// and the segments covering its suffix stay until the next checkpoint,
	// so recovery can fall back if the newest checkpoint file is ever
	// unreadable (bit rot — installs themselves are atomic). Pruning is
	// best-effort: leftovers are re-pruned by later checkpoints.
	prevBase := l.base
	l.base = ck.Seq
	entries, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range entries {
			if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok && seq <= prevBase {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
			if seq, ok := parseSeq(e.Name(), "ckpt-", ".ckpt"); ok && seq < prevBase {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	return syncDir(l.dir)
}

// rollSegmentLocked installs an empty segment for the records from seq
// first on and makes it the active one. Like a checkpoint, the segment
// appears atomically: its header is written to a temporary file that is
// renamed into place before the directory is fsynced, so a crash never
// leaves a segment shorter than its header (Open prunes the leftover
// temporary). Callers hold l.mu or have exclusive use, as in Open.
func (l *Log) rollSegmentLocked(first uint64) error {
	seg := filepath.Join(l.dir, segName(first))
	if err := writeFileSync(seg+".tmp", fileHeaderBytes(walMagic, l.opts.SchemaFP, l.opts.ViewsFP, first)); err != nil {
		return err
	}
	if err := os.Rename(seg+".tmp", seg); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	return nil
}

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Err returns the log's poison error, if any write or sync has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// NextSeq returns the sequence number the next Append must carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close closes the active segment (every appended record is already
// durable). The caller typically writes a final checkpoint first.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.err
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
