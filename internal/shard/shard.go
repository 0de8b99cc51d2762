package shard

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/schema"
)

// ErrTorn wraps every ApplyDelta error: its batch is validated, so it
// fails only after some shard may have mutated its writer-side state, and
// the shards run concurrently, so a failure leaves the batch applied on
// some shards and not others (the published epoch is untouched, but the
// writer-side state no longer matches it). Callers must fence writes.
var ErrTorn = errors.New("shard: writer state torn by a partial apply")

// state is one shard's WRITER-SIDE machinery: the incremental
// maintenance engine for the shard-local views, whose
// multiplicity map is the shard's only copy of its rows, and the latest
// version of its fetch indices. Readers never touch it — they read the
// immutable per-epoch versions published in Epoch.
type state struct {
	eng *eval.DeltaEngine
	vix *instance.VIndex
}

// Config tunes a sharded instance.
type Config struct {
	Shards int

	// Probes, when non-nil, holds one counter per shard bumped on every
	// fetch-index probe routed to (or broadcast to) that shard — the
	// per-shard load telemetry the serving layer exports. len(Probes)
	// must equal Shards when set; nil disables the accounting.
	Probes []*obs.Counter

	// InitialSeq, set by the durability layer when reopening a journaled
	// directory, is the initial epoch sequence number: the restored
	// checkpoint's, so replayed batches publish the same epochs they did
	// originally.
	InitialSeq uint64
	// Extents, when set, seed every view engine from checkpointed counted
	// extents (CheckpointExtents, at any P) instead of enumerating views.
	Extents map[string]eval.Extent
}

// DeltaStats summarizes one applied batch (mirrors the facade's).
// ViewsChanged counts the views whose extents differ from the previous
// epoch's. MaxShardHold is the longest single-shard maintenance window of
// the batch. Under epoch reads it blocks nobody — readers stay on the
// previous epoch until the new one is published — but it still bounds the
// batch's publication lag, and its ~P-fold shrink is the per-shard
// parallelism signal the scaling experiment gates. DeltaStats is a plain
// value — safe to copy, retains no reference to shard state.
type DeltaStats struct {
	Inserted     int
	Deleted      int
	ViewsChanged int
	MaxShardHold time.Duration
}

// Epoch is one published, immutable version of the whole sharded state:
// every shard's fetch-index version, the view set and the statistics, all
// installed by a single atomic pointer swap — so a reader pinning an
// Epoch sees one cross-shard-consistent state and a batch can never be
// observed applied on some shards and not others. The view set holds one
// plan.ViewVersion per view: a view the batch left unchanged keeps the
// previous epoch's version, with its flattened rows and join indices.
//
// Epoch implements plan.Source (accounting-free): fetches whose
// constraint binds the partition key probe the one owning shard's index
// version, everything else gathers over all versions in turn and
// deduplicates.
type Epoch struct {
	seq        uint64
	part       *Partition
	dict       *intern.Dict
	vixes      []*instance.VIndex
	pv         *plan.PreparedViews
	stats      *plan.Stats
	size       int
	shardSizes []int
	probes     []*obs.Counter // per-shard probe telemetry (nil when disabled)
}

// probe adds n probes to shard i's probe counter. A nil probes slice
// (metrics disabled) costs one bounds check; the counter add itself is a
// striped lock-free atomic, so probing stays allocation-free on the read
// path.
func (e *Epoch) probe(i, n int) {
	if i < len(e.probes) {
		e.probes[i].Add(int64(n))
	}
}

// Seq returns the epoch's sequence number.
func (e *Epoch) Seq() uint64 { return e.seq }

// Dict returns the shared dictionary, making the epoch a plan.Source.
func (e *Epoch) Dict() *intern.Dict { return e.dict }

// AllViewIDs returns every view's gathered extent as of this epoch,
// forcing any pending merges. The map is fresh; the row sets are
// immutable.
func (e *Epoch) AllViewIDs() map[string][][]uint32 {
	out := make(map[string][][]uint32)
	for name, vv := range e.pv.All() {
		out[name] = vv.Rows()
	}
	return out
}

// Prepared returns the epoch's prepared plan inputs.
func (e *Epoch) Prepared() *plan.PreparedViews { return e.pv }

// Stats returns the epoch's statistics: exact, and the same at any shard
// count. Every epoch publishes its own.
func (e *Epoch) Stats() *plan.Stats { return e.stats }

// Size returns |D| across all shards as of this epoch.
func (e *Epoch) Size() int { return e.size }

// ShardSizes returns |D_p| per shard as of this epoch.
func (e *Epoch) ShardSizes() []int { return e.shardSizes }

// FetchIDs answers a fetch against this epoch: a point read on the owning
// shard when the constraint binds the partition key, a gather over every
// shard's pinned index version in turn (deduplicated) otherwise. No accounting
// happens here: plan.Run counts the tuples a run fetches.
func (e *Epoch) FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error) {
	if len(e.vixes) == 1 {
		// One partition: nothing to route (the index itself validates the
		// constraint and the arity).
		e.probe(0, 1)
		return e.vixes[0].FetchIDs(c, xval)
	}
	r := e.part.Route(c)
	if r == nil {
		return nil, fmt.Errorf("shard: no index for constraint %s", c)
	}
	if len(xval) != len(c.X) {
		return nil, fmt.Errorf("shard: fetch on %s expects %d input values, got %d", c, len(c.X), len(xval))
	}
	if r.XPos != nil {
		si := shardOf(intern.HashAt(xval, r.XPos), len(e.vixes))
		e.probe(si, 1)
		return e.vixes[si].FetchIDs(c, xval)
	}
	// Broadcast: gather the distinct XY-projections across all shards.
	// Deduplication keeps the result — and the fetch accounting layered
	// above — identical to a single index over all of D. The first
	// non-empty shard's rows are returned as they are until a second one
	// answers; from then on the rows gather in a RowSet of their own, so
	// no shard's slice is appended into.
	var first [][]uint32
	var seen intern.RowSet
	for i, vx := range e.vixes {
		e.probe(i, 1)
		rows, err := vx.FetchIDs(c, xval)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		if first == nil {
			first = rows
			continue
		}
		if seen.Rows == nil {
			seen = intern.NewRowSet(nil, len(first)+len(rows))
			for _, r := range first {
				seen.Add(r)
			}
		}
		for _, r := range rows {
			seen.Add(r)
		}
	}
	if seen.Rows == nil {
		return first, nil
	}
	return seen.Rows, nil
}

// FetchAll appends to out the rows FetchIDs returns for each of keys, in
// turn, making the epoch a plan.Source. With one partition the keys'
// probes are counted with one counter add.
func (e *Epoch) FetchAll(c *access.Constraint, keys, out [][]uint32) ([][]uint32, error) {
	fetch := e.FetchIDs
	if len(e.vixes) == 1 {
		e.probe(0, len(keys))
		fetch = e.vixes[0].FetchIDs
	}
	for _, k := range keys {
		rows, err := fetch(c, k)
		if err != nil {
			return out, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Sharded is a partitioned live instance: P shards, the routing metadata,
// the global maintenance engine for the other views, the statistics
// store, and the last Epoch it published.
//
// Concurrency: Open and ApplyDelta return the epoch they publish for the
// caller to install; readers serve from its immutable structures without
// locks and are never blocked by ApplyDelta. There is no torn-batch
// window: either an epoch contains all of a batch's effects on every
// shard (and on the global views) or none of them.
type Sharded struct {
	schema *schema.Schema
	views  map[string]*cq.UCQ
	part   *Partition
	dict   *intern.Dict
	probes []*obs.Counter // Config.Probes

	batchMu sync.Mutex // serializes ApplyDelta batches
	shards  []*state
	g       *eval.DeltaEngine  // global engine; nil when every view is shard-local
	keys    map[string]ViewKey // the shard-local views' keys
	stats   *statsStore
	seq     uint64

	// journal, when set (SetJournal), receives every accepted batch — its
	// epoch sequence number and the combined physically applied ops across
	// all shards, deletes then inserts in shard order — BEFORE the epoch
	// publishes. A journal error aborts publication (the writer-side state
	// is already mutated; the caller must fence further writes).
	journal func(seq uint64, a *instance.Applied) error

	last *Epoch // the last published; the next batch's views derive from it
}

// Open builds the sharded engine over ID-encoded rows interned through d:
// rows maps each relation of s to its rows (a multiset; a missing
// relation is empty). Every row goes to the shard its partition values
// hash to. Each shard builds its fetch index and its maintenance engine,
// whose multiplicity map is the shard's only row store, from its rows.
// The rows are shared and never mutated, and d becomes the engine's
// dictionary, which later batches intern into. The views must already be
// validated against the schema. Open returns the epoch it publishes.
func Open(d *intern.Dict, rows map[string][][]uint32, s *schema.Schema, a *access.Schema, views map[string]*cq.UCQ, cfg Config) (*Sharded, *Epoch, error) {
	p := cfg.Shards
	if p < 1 {
		return nil, nil, fmt.Errorf("shard: need at least 1 shard, got %d", p)
	}
	pt := NewPartition(s, a, p)
	// Intern the views' constants in view-name order, so the dictionary
	// does not depend on the order the engines compile in.
	for _, name := range slices.Sorted(maps.Keys(views)) {
		for _, q := range views[name].Disjuncts {
			for _, c := range q.Constants() {
				d.ID(c)
			}
		}
	}
	localViews := make(map[string]*cq.UCQ)
	globalViews := make(map[string]*cq.UCQ)
	keys := make(map[string]ViewKey)
	globalRows := make(map[string][][]uint32)
	for name, def := range views {
		if key, ok := pt.LocalView(def); ok {
			localViews[name], keys[name] = def, key
			continue
		}
		globalViews[name] = def
		for _, q := range def.Disjuncts {
			for _, at := range q.Atoms {
				globalRows[at.Rel] = rows[at.Rel]
			}
		}
	}
	sh := &Sharded{
		schema: s,
		views:  views,
		part:   pt,
		dict:   d,
		probes: cfg.Probes,
		keys:   keys,
	}
	// With checkpointed extents, every engine seeds from its share of them.
	shardExts, err := sh.splitExtents(cfg.Extents)
	if err != nil {
		return nil, nil, err
	}

	// The global engine stores every row of the relations its views read.
	if len(globalViews) > 0 {
		eng, err := eval.NewDeltaEngine(s, d, globalRows, globalViews, cfg.Extents)
		if err != nil {
			return nil, nil, err
		}
		sh.g = eng
	}

	// Every shard stores every relation, empty or not.
	parts := make([]map[string][][]uint32, p)
	for i := range parts {
		parts[i] = make(map[string][][]uint32, len(s.Relations))
	}
	for _, r := range s.Relations {
		for i := range parts {
			parts[i][r.Name] = nil
		}
		for _, row := range rows[r.Name] {
			i := pt.ShardOfIDs(r.Name, row)
			parts[i][r.Name] = append(parts[i][r.Name], row)
		}
	}

	// Per-shard indices and maintenance engines, built concurrently.
	sh.shards = make([]*state, p)
	if err := par.ForEach(p, func(i int) error {
		vix, err := instance.BuildVIndex(s, d, parts[i], a)
		if err != nil {
			return err
		}
		eng, err := eval.NewDeltaEngine(s, d, parts[i], localViews, shardExts[i])
		if err != nil {
			return err
		}
		sh.shards[i] = &state{eng: eng, vix: vix}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Pin every view once: the opening epoch serves the headers, and the
	// statistics are seeded by walking them.
	headers := make(map[string][]eval.ExtentHeader, len(views))
	pinned := make(map[string]*plan.ViewVersion, len(views))
	for name := range views {
		headers[name], pinned[name] = sh.pin(name)
	}
	sh.stats = sh.seedStats(rows, headers)
	sh.seq = cfg.InitialSeq
	return sh, sh.publish(plan.NewPreparedViews(d, pinned)), nil
}

// splitExtents deals the shard-local views' extents out to the shards,
// each row to the shard its key names; every shard lists every such view,
// empty or not, as seeding requires. With nil exts every share is nil.
func (s *Sharded) splitExtents(exts map[string]eval.Extent) ([]map[string]eval.Extent, error) {
	out := make([]map[string]eval.Extent, s.part.P)
	if exts == nil {
		return out, nil
	}
	for i := range out {
		out[i] = make(map[string]eval.Extent, len(s.keys))
	}
	for name, k := range s.keys {
		ext, ok := exts[name]
		if !ok {
			continue
		}
		if len(ext.Rows) != len(ext.Counts) {
			return nil, fmt.Errorf("shard: restore: view %s has %d rows but %d counts", name, len(ext.Rows), len(ext.Counts))
		}
		for i := range out {
			out[i][name] = eval.Extent{}
		}
		arity := s.views[name].Arity()
		key := make([]uint32, len(k.Pos))
		for j, p := range k.Pos {
			if p < 0 {
				key[j] = s.dict.ID(k.Const[j])
			}
		}
		for r, row := range ext.Rows {
			if len(row) != arity {
				return nil, fmt.Errorf("shard: restore: view %s row has arity %d, want %d", name, len(row), arity)
			}
			for j, p := range k.Pos {
				if p >= 0 {
					key[j] = row[p]
				}
			}
			i := shardOf(intern.Hash(key), s.part.P)
			e := out[i][name]
			e.Rows, e.Counts = append(e.Rows, row), append(e.Counts, ext.Counts[r])
			out[i][name] = e
		}
	}
	return out, nil
}

// SetJournal installs (or clears) the batch journal hook. The durability
// layer sets it AFTER any recovery replay, so replayed batches are not
// re-journaled.
func (s *Sharded) SetJournal(fn func(seq uint64, a *instance.Applied) error) {
	s.batchMu.Lock()
	s.journal = fn
	s.batchMu.Unlock()
}

// CheckpointTables returns every relation's rows, copies included, read
// from the shards' engines and concatenated in shard order — the logical
// table serialization a checkpoint stores. Re-opening over the rows with
// the same partition function reproduces the same per-shard contents
// (all copies of a row hash to one shard); row order is unspecified.
// Callers must exclude writers.
func (s *Sharded) CheckpointTables() map[string][][]uint32 {
	out := make(map[string][][]uint32, len(s.schema.Relations))
	for _, rel := range s.schema.Relations {
		rows := [][]uint32{}
		for _, st := range s.shards {
			st.eng.EachRow(rel.Name, func(row []uint32, n int) {
				for ; n > 0; n-- {
					rows = append(rows, row)
				}
			})
		}
		out[rel.Name] = rows
	}
	return out
}

// CheckpointExtents returns every view's counted extent: a shard-local
// view's is the concatenation of the shards' disjoint extents, a global
// view's the global engine's. It does not depend on P, so it seeds an open
// at any shard count (Config.Extents). Callers must exclude writers.
func (s *Sharded) CheckpointExtents() map[string]eval.Extent {
	out := make(map[string]eval.Extent, len(s.views))
	add := func(eng *eval.DeltaEngine) {
		for name, ext := range eng.CheckpointExtents() {
			if acc, ok := out[name]; ok {
				ext.Rows, ext.Counts = append(acc.Rows, ext.Rows...), append(acc.Counts, ext.Counts...)
			}
			out[name] = ext
		}
	}
	for _, st := range s.shards {
		add(st.eng)
	}
	if s.g != nil {
		add(s.g)
	}
	return out
}

// Dict returns the shared dictionary.
func (s *Sharded) Dict() *intern.Dict { return s.dict }

// LocalViews reports which views are maintained shard-locally (see
// Partition.LocalView) vs by the global engine.
func (s *Sharded) LocalViews() (local, global []string) {
	for name := range s.views {
		if _, ok := s.keys[name]; ok {
			local = append(local, name)
		} else {
			global = append(global, name)
		}
	}
	return local, global
}

// publish builds the next epoch over the view set pv and the shards'
// current index versions and statistics, records it as the last and
// returns it. Callers hold batchMu (or have exclusive access, as in Open).
func (s *Sharded) publish(pv *plan.PreparedViews) *Epoch {
	vixes := make([]*instance.VIndex, len(s.shards))
	sizes := make([]int, len(s.shards))
	size := 0
	for i, st := range s.shards {
		vixes[i] = st.vix
		sizes[i] = st.eng.Size()
		size += sizes[i]
	}
	s.last = &Epoch{
		seq:        s.seq,
		part:       s.part,
		dict:       s.dict,
		vixes:      vixes,
		pv:         pv,
		stats:      s.stats.stats(s.schema),
		size:       size,
		shardSizes: sizes,
		probes:     s.probes,
	}
	s.seq++
	return s.last
}

// pin pins one view's extent for the next epoch — the global engine's
// copy-on-write header for a global view, else one header per shard —
// and returns the headers and the view version serving their
// concatenation, flattened on its first read (a shard-local view's head
// fixes the shard, so the shards' extents are disjoint and their
// concatenation is exactly the set one engine over all of D would serve).
// Pinning copies one pointer per 32 rows.
func (s *Sharded) pin(name string) ([]eval.ExtentHeader, *plan.ViewVersion) {
	var hs []eval.ExtentHeader
	if _, ok := s.keys[name]; ok {
		for _, st := range s.shards {
			hs = append(hs, st.eng.PublishExtentIDs(name))
		}
	} else {
		hs = []eval.ExtentHeader{s.g.PublishExtentIDs(name)}
	}
	return hs, plan.NewViewVersion(s.views[name].Arity(), func() [][]uint32 {
		n := 0
		for _, h := range hs {
			n += h.Len()
		}
		out := make([][]uint32, 0, n)
		for _, h := range hs {
			out = h.AppendRows(out)
		}
		return out
	})
}

// ApplyDelta routes a validated ID batch (instance.Validate, Encode) per
// shard, maintains every touched shard concurrently (rows, fetch-index
// versions, local views), feeds the applied ops to the global engine, and
// publishes and returns the next epoch. Semantics match a single
// instance's: deletes first (each removing one occurrence, absent deletes
// are no-ops), then inserts; all copies of a row live on one shard, so
// per-shard application preserves the batch's outcome exactly.
func (s *Sharded) ApplyDelta(inserts, deletes []instance.AppliedOp) (DeltaStats, *Epoch, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	p := len(s.shards)
	route := func(ops []instance.AppliedOp) [][]instance.AppliedOp {
		by := make([][]instance.AppliedOp, p)
		for _, op := range ops {
			i := s.part.ShardOfIDs(op.Rel, op.IDs)
			by[i] = append(by[i], op)
		}
		return by
	}
	delBy, insBy := route(deletes), route(inserts)

	applied := make([]*instance.Applied, p)
	trans := make([][]eval.Transition, p)
	holds := make([]time.Duration, p)
	if err := par.ForEach(p, func(i int) error {
		if len(delBy[i]) == 0 && len(insBy[i]) == 0 {
			applied[i] = new(instance.Applied)
			return nil
		}
		st := s.shards[i]
		t0 := time.Now()
		defer func() { holds[i] = time.Since(t0) }()
		a := st.eng.Resolve(insBy[i], delBy[i])
		vix, err := st.vix.Apply(a)
		if err != nil {
			return err
		}
		st.vix = vix
		tr, err := st.eng.Apply(a)
		if err != nil {
			return err
		}
		applied[i], trans[i] = a, tr
		return nil
	}); err != nil {
		// Even a per-shard index rejection is torn here: the other shards
		// ran concurrently and may have applied their slices.
		return DeltaStats{}, nil, fmt.Errorf("%w: %w", ErrTorn, err)
	}

	stats := DeltaStats{}
	dirty := make(map[string]bool)
	for i := 0; i < p; i++ {
		if holds[i] > stats.MaxShardHold {
			stats.MaxShardHold = holds[i]
		}
		s.stats.fold(applied[i], trans[i], true, dirty)
		stats.Inserted += len(applied[i].Inserted)
		stats.Deleted += len(applied[i].Deleted)
	}

	// The combined physical batch (deletes first, then inserts, each in
	// shard order) feeds both the global engine and the journal; build it
	// once when either needs it.
	var combined *instance.Applied
	if (s.g != nil && stats.Inserted+stats.Deleted > 0) || s.journal != nil {
		combined = &instance.Applied{}
		for _, a := range applied {
			combined.Deleted = append(combined.Deleted, a.Deleted...)
		}
		for _, a := range applied {
			combined.Inserted = append(combined.Inserted, a.Inserted...)
		}
	}

	// Global views see the whole batch, deletes first. Their
	// maintenance lands in the SAME epoch as the base rows — the atomic
	// publication below removes the old "global views one batch behind"
	// read window.
	if s.g != nil && stats.Inserted+stats.Deleted > 0 {
		t0 := time.Now()
		gtr, err := s.g.Apply(combined)
		if err != nil {
			return DeltaStats{}, nil, fmt.Errorf("%w: %w", ErrTorn, err)
		}
		if hold := time.Since(t0); hold > stats.MaxShardHold {
			stats.MaxShardHold = hold
		}
		s.stats.fold(combined, gtr, false, dirty)
	}

	stats.ViewsChanged = len(dirty)
	// Journal before publication: an epoch is never visible to readers
	// unless its batch reached the log. EVERY accepted batch journals,
	// even an all-no-op one — the epoch number advances unconditionally,
	// and replay must reproduce the exact numbering.
	if s.journal != nil {
		if err := s.journal(s.seq, combined); err != nil {
			return DeltaStats{}, nil, fmt.Errorf("%w: journal: %w", ErrTorn, err)
		}
	}
	// Only the dirty views get a new version; the rest keep theirs, with
	// their rows and indices.
	changed := make(map[string]*plan.ViewVersion, len(dirty))
	for name := range dirty {
		_, changed[name] = s.pin(name)
	}
	return stats, s.publish(s.last.pv.With(changed)), nil
}

// Close releases the writer-side maintenance machinery — the shard
// engines with their rows, and the global engine. The current epoch
// (and any pinned one) keeps serving reads; callers must fence
// ApplyDelta beforehand (the facade's closed flag).
func (s *Sharded) Close() {
	s.batchMu.Lock()
	s.shards, s.g, s.stats = nil, nil, nil
	s.batchMu.Unlock()
}
