package repro

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/wal"
)

// RecoveryInfo reports what opening a durable directory had to do to get
// back to serving: the checkpoint it started from, the log suffix it
// replayed on top, and whether an incomplete tail (a batch cut mid-write
// by a crash) was discarded. RecoveryInfo is a plain value — safe to
// copy, retains no reference to engine state.
type RecoveryInfo struct {
	CheckpointSeq  uint64 // epoch the loaded checkpoint serialized
	ReplayedEpochs int    // journal records replayed after the checkpoint
	ReplayedOps    int    // physical ops those records carried
	TornTail       bool   // an incomplete final record was discarded
}

// walOptions derives the log header fingerprints from the system: durable
// state written for a different schema or view set must never be replayed
// here — the interned IDs and plan constants would not line up.
func (sys *System) walOptions() wal.Options {
	names := make([]string, 0, len(sys.Views))
	for name := range sys.Views {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+sys.Views[n].String())
	}
	return wal.Options{
		SchemaFP: wal.Fingerprint(sys.Schema.String()),
		ViewsFP:  wal.Fingerprint(parts...),
	}
}

// replayOps turns one journal record back into an ID batch. The record's
// dictionary growth is re-interned FIRST, in journal order, and each
// string must land on exactly the ID it had when journaled — any skew
// means the directory does not belong to this state and replay must stop
// rather than silently misbind rows. The engine trusts its batch, so the
// rows must pass checkIDRows.
func replayOps(s *Schema, dict *intern.Dict, r *wal.Record) (inserts, deletes []instance.AppliedOp, err error) {
	for _, str := range r.Dict {
		want := dict.Len()
		if id := dict.ID(str); int(id) != want {
			return nil, nil, fmt.Errorf("repro: replay epoch %d: dictionary determinism violated: %q interned as id %d, journal expects %d", r.Seq, str, id, want)
		}
	}
	mk := func(ops []wal.Op) ([]instance.AppliedOp, error) {
		out := make([]instance.AppliedOp, len(ops))
		for i, op := range ops {
			rel := r.Rels[op.Rel].Name
			if err := checkIDRows(s, dict.Len(), rel, op.Row); err != nil {
				return nil, fmt.Errorf("repro: replay epoch %d: %w", r.Seq, err)
			}
			out[i] = instance.AppliedOp{Rel: rel, IDs: op.Row}
		}
		return out, nil
	}
	if deletes, err = mk(r.Deletes); err != nil {
		return nil, nil, err
	}
	if inserts, err = mk(r.Inserts); err != nil {
		return nil, nil, err
	}
	return inserts, deletes, nil
}

// replayInto drives the recovered log suffix through a fresh handle's
// normal apply path (journaling still detached), validating after every
// record that the replay applied exactly the ops the journal recorded.
func replayInto(rec *wal.Recovered, l *Live) (RecoveryInfo, error) {
	info := RecoveryInfo{CheckpointSeq: rec.Checkpoint.Seq, TornTail: rec.TornTail}
	for _, r := range rec.Records {
		ins, dels, err := replayOps(l.sys.Schema, l.sh.Dict(), r)
		if err != nil {
			return info, err
		}
		st, err := l.applyLocked(time.Now(), ins, dels)
		if err != nil {
			return info, fmt.Errorf("repro: replay epoch %d: %w", r.Seq, err)
		}
		if st.Inserted != len(r.Inserts) || st.Deleted != len(r.Deletes) {
			return info, fmt.Errorf("repro: replay epoch %d diverged: applied %d inserts/%d deletes, journal recorded %d/%d",
				r.Seq, st.Inserted, st.Deleted, len(r.Inserts), len(r.Deletes))
		}
		info.ReplayedEpochs++
		info.ReplayedOps += len(r.Inserts) + len(r.Deletes)
	}
	return info, nil
}

// openDurable opens (or recovers) a handle over a durable directory. One
// log serves all shards: the journal hook receives each batch's combined
// physical ops (deletes then inserts, in shard order) before the epoch
// publishes, and replay applies the journaled ID rows on ApplyDelta's
// path, so recovery reproduces the same epochs at any shard count.
func (sys *System) openDurable(db *Database, cfg openConfig) (*Live, error) {
	log, rec, err := wal.Open(cfg.durDir, sys.walOptions())
	if err != nil {
		return nil, err
	}
	var l *Live
	switch {
	case rec == nil:
		// Fresh directory: serve the given database; the opening epoch is
		// checkpointed below so the log has a recovery base.
		l, err = sys.newLive(db.Dict, db.IDTables(), cfg, nil)
	case db.Size() != 0 || db.Dict.Len() != 0:
		err = fmt.Errorf("repro: %s holds durable state; recovery requires an empty database", cfg.durDir)
	default:
		l, err = sys.restore(rec, cfg)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	log.SetMetrics(walMetrics(l.met))
	l.wal, l.ckptEvery = log, cfg.ckptEvery
	if rec == nil {
		if err := l.checkpointLocked(); err != nil {
			l.wal = nil
			log.Close()
			return nil, fmt.Errorf("repro: initial checkpoint: %w", err)
		}
	} else {
		// Journaling attaches only after replay: the replayed batches are
		// already in the log, and counting them toward the next periodic
		// checkpoint keeps a crash-loop from replaying unboundedly.
		l.sinceCkpt = len(rec.Records)
	}
	// The dictionary is the one all shards intern into, so each record's
	// growth section captures the realized intern order — exactly what
	// replay needs to reassign identical IDs.
	dict := l.sh.Dict()
	l.sh.SetJournal(func(seq uint64, a *instance.Applied) error {
		return log.Append(dict, seq, a)
	})
	return l, nil
}

// restore rebuilds a handle from a checkpoint plus log suffix. The
// dictionary prefix restores the exact interned IDs (dense, first-intern
// order), which is what makes replay reassign identical IDs afterwards.
// The checkpoint's ID rows go to the engine as they are (checkpointRows
// checks them first); re-routing them by the same hash reproduces each
// shard's contents, and with them the exact statistics the engines count.
func (sys *System) restore(rec *wal.Recovered, cfg openConfig) (*Live, error) {
	ck := rec.Checkpoint
	dict, ok := intern.FromStrings(ck.Dict)
	if !ok {
		return nil, fmt.Errorf("repro: recover: checkpoint dictionary has duplicate strings")
	}
	rows, err := checkpointRows(sys.Schema, dict.Len(), ck.Tables)
	if err != nil {
		return nil, fmt.Errorf("repro: recover: %w", err)
	}
	for _, v := range ck.Views {
		if err := checkIDRange(dict.Len(), "view "+v.Name, v.Rows); err != nil {
			return nil, fmt.Errorf("repro: recover: checkpoint: %w", err)
		}
	}
	l, err := sys.newLive(dict, rows, cfg, ck)
	if err != nil {
		return nil, fmt.Errorf("repro: recover: %w", err)
	}
	info, err := replayInto(rec, l)
	if err != nil {
		return nil, err
	}
	l.recovery = info
	return l, nil
}

// checkpointRows checks a checkpoint's tables before the engine adopts
// their rows: each names a relation at most once, and its rows pass
// checkIDRows against the restored dictionary's length n. The engine
// trusts its rows, so a corrupt checkpoint must stop here.
func checkpointRows(s *Schema, n int, tables []wal.TableRows) (map[string][][]uint32, error) {
	rows := make(map[string][][]uint32, len(tables))
	for _, t := range tables {
		if _, dup := rows[t.Rel]; dup {
			return nil, fmt.Errorf("checkpoint repeats relation %s", t.Rel)
		}
		if err := checkIDRows(s, n, t.Rel, t.Rows...); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		rows[t.Rel] = t.Rows
	}
	return rows, nil
}

// checkIDRows checks ID rows of relation rel from durable state: rel is
// a relation of s, every row has its arity and passes checkIDRange.
func checkIDRows(s *Schema, n int, rel string, rows ...[]uint32) error {
	r := s.Relation(rel)
	if r == nil {
		return fmt.Errorf("unknown relation %s", rel)
	}
	for _, row := range rows {
		if len(row) != r.Arity() {
			return fmt.Errorf("%s row has arity %d, want %d", rel, len(row), r.Arity())
		}
	}
	return checkIDRange(n, rel, rows)
}

// checkIDRange checks that every ID of rows (of a relation or a view,
// named by what) from durable state lies below the restored dictionary's
// length n: the engine serves the rows it adopts, and a read decodes them.
func checkIDRange(n int, what string, rows [][]uint32) error {
	for _, row := range rows {
		for _, id := range row {
			if int(id) >= n {
				return fmt.Errorf("%s row references ID %d beyond dictionary length %d", what, id, n)
			}
		}
	}
	return nil
}
