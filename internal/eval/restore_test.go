package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/intern"
)

// TestDeltaEngineRestoreDifferential is the checkpoint/restore harness for
// the engine's recovery fast path: build an engine, churn it, serialize
// exactly what a WAL checkpoint stores (dictionary strings, the engine's
// stored rows, counted extents), rebuild a second engine from that alone
// via NewDeltaEngine with the extents, then drive BOTH engines with the
// identical remaining op stream — the original through the oracle
// database, the restored one through its own Resolve. Extents and applied
// op counts must agree batch for batch, and the restored engine must also
// agree with full recomputation at the end.
func TestDeltaEngineRestoreDifferential(t *testing.T) {
	const pool = 9
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(7700 + trial)))
		s := randViewSchema(rng)
		views := map[string]*cq.UCQ{}
		for v := 0; v < 2+rng.Intn(2); v++ {
			name := fmt.Sprintf("W%d", v)
			views[name] = randView(rng, s, name, pool)
		}
		db := instance.NewDatabase(s)
		for i := 0; i < 80; i++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			db.MustInsert(rel.Name, randRow(rng, rel.Arity(), pool)...)
		}
		e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Pre-generate the whole op stream so the two engines can replay
		// the identical suffix after the checkpoint.
		type batch struct{ ins, del []instance.Op }
		live := map[string][]instance.Tuple{}
		for _, rel := range s.Relations {
			for _, tu := range db.Table(rel.Name).Tuples {
				live[rel.Name] = append(live[rel.Name], tu.Clone())
			}
		}
		var batches []batch
		for op := 0; op < 600; op++ {
			rel := s.Relations[rng.Intn(len(s.Relations))]
			var b batch
			wantDelete := rng.Float64() < 0.45 || len(live[rel.Name]) > 160
			switch {
			case wantDelete && len(live[rel.Name]) > 0 && rng.Float64() < 0.9:
				i := rng.Intn(len(live[rel.Name]))
				row := live[rel.Name][i]
				live[rel.Name][i] = live[rel.Name][len(live[rel.Name])-1]
				live[rel.Name] = live[rel.Name][:len(live[rel.Name])-1]
				b.del = append(b.del, instance.Op{Rel: rel.Name, Row: row})
			case wantDelete:
				b.del = append(b.del, instance.Op{Rel: rel.Name, Row: randRow(rng, rel.Arity(), pool)})
			default:
				row := instance.Tuple(randRow(rng, rel.Arity(), pool))
				live[rel.Name] = append(live[rel.Name], row)
				b.ins = append(b.ins, instance.Op{Rel: rel.Name, Row: row})
			}
			batches = append(batches, b)
		}
		apply := func(e *DeltaEngine, a *instance.Applied) {
			t.Helper()
			if _, err := e.Apply(a); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		oracle := func(b batch) *instance.Applied {
			t.Helper()
			a, err := db.ApplyDelta(b.ins, b.del)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return a
		}
		half := len(batches) / 2
		for _, b := range batches[:half] {
			apply(e, oracle(b))
		}

		// Checkpoint: dictionary prefix, stored rows, counted extents — and
		// restore into an engine sharing nothing with the original.
		dict2, ok := intern.FromStrings(db.Dict.StringsRange(0, db.Dict.Len()))
		if !ok {
			t.Fatalf("trial %d: dictionary serialization has duplicates", trial)
		}
		rows := map[string][][]uint32{}
		for _, rel := range s.Relations {
			rows[rel.Name] = e.Rows(rel.Name)
		}
		e2, err := NewDeltaEngine(s, dict2, rows, views, e.CheckpointExtents())
		if err != nil {
			t.Fatalf("trial %d: restore engine: %v", trial, err)
		}
		if e2.Size() != db.Size() {
			t.Fatalf("trial %d: restored |D| = %d, want %d", trial, e2.Size(), db.Size())
		}
		compare := func(when string) {
			t.Helper()
			got, want := e2.Views(), e.Views()
			for name := range views {
				if !cq.RowsEqual(got[name], want[name]) {
					t.Fatalf("trial %d %s: view %s diverged: restored %d rows, original %d",
						trial, when, name, len(got[name]), len(want[name]))
				}
			}
		}
		compare("after restore")

		// Identical suffix into both engines: divergence anywhere means the
		// restored join state (indexes, supports, counts) is not equivalent.
		for i, b := range batches[half:] {
			a := oracle(b)
			apply(e, a)
			a2 := e2.Resolve(instance.Encode(dict2, b.ins, b.del))
			if len(a2.Inserted) != len(a.Inserted) || len(a2.Deleted) != len(a.Deleted) {
				t.Fatalf("trial %d suffix batch %d: Resolve applied %d+%d ops, the oracle %d+%d",
					trial, i, len(a2.Inserted), len(a2.Deleted), len(a.Inserted), len(a.Deleted))
			}
			apply(e2, a2)
			if i%50 == 0 || i == len(batches[half:])-1 {
				compare(fmt.Sprintf("suffix batch %d", i))
			}
		}
		if e2.Size() != db.Size() {
			t.Fatalf("trial %d: restored |D| = %d after the suffix, want %d", trial, e2.Size(), db.Size())
		}
		assertEngineFresh(t, e2, db, views, true)
	}
}

// TestDeltaEngineRestoreRejectsCorruptExtents pins the cheap validation of
// the restore constructor: missing views, row/count length skew, arity
// drift, non-positive counts and repeated rows are all hard errors, never
// a silently wrong engine.
func TestDeltaEngineRestoreRejectsCorruptExtents(t *testing.T) {
	s := randViewSchema(rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	views := map[string]*cq.UCQ{"W0": randView(rng, s, "W0", 4)}
	db := instance.NewDatabase(s)
	for i := 0; i < 40; i++ {
		rel := s.Relations[rng.Intn(len(s.Relations))]
		db.MustInsert(rel.Name, randRow(rng, rel.Arity(), 4)...)
	}
	e, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := e.CheckpointExtents()
	if len(good["W0"].Rows) == 0 {
		t.Skip("extent empty for this seed; corruption cases need rows")
	}
	mutate := func(name string, f func(ext *Extent)) map[string]Extent {
		out := make(map[string]Extent)
		for n, ext := range good {
			c := Extent{Rows: append([][]uint32(nil), ext.Rows...), Counts: append([]int(nil), ext.Counts...)}
			out[n] = c
		}
		ext := out[name]
		f(&ext)
		out[name] = ext
		return out
	}
	cases := map[string]map[string]Extent{
		"missing view": {},
		"count skew":   mutate("W0", func(x *Extent) { x.Counts = x.Counts[:len(x.Counts)-1] }),
		"zero count":   mutate("W0", func(x *Extent) { x.Counts[0] = 0 }),
		"arity drift":  mutate("W0", func(x *Extent) { x.Rows[0] = x.Rows[0][:0] }),
	}
	if len(good["W0"].Rows) > 1 {
		cases["repeated row"] = mutate("W0", func(x *Extent) {
			x.Rows[len(x.Rows)-1] = x.Rows[0]
			x.Counts[len(x.Counts)-1] = 1
		})
	}
	for what, ext := range cases {
		if _, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, ext); err == nil {
			t.Errorf("%s: restore accepted a corrupt checkpoint", what)
		}
	}
}
