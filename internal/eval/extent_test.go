package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/schema"
)

// TestExtentGrowShrinkFreesChunks: a view that grows large and then
// shrinks holds exactly ⌈n/32⌉ chunks for its n live rows — shrinking
// frees chunks, so no capacity is stranded and no compaction pass is
// needed — while a header published before the shrink still reads every
// row it had.
func TestExtentGrowShrinkFreesChunks(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	db := instance.NewDatabase(s)
	views := map[string]*cq.UCQ{
		"V": cq.NewUCQ(cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})),
	}
	eng, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ins, del []instance.Op) {
		t.Helper()
		a, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(a); err != nil {
			t.Fatal(err)
		}
	}
	row := func(i int) instance.Tuple { return instance.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)} }
	chunksFor := func(n int) int { return (n + extentChunkRows - 1) / extentChunkRows }
	v := eng.views["V"]

	const n = 4096
	var ins []instance.Op
	for i := 0; i < n; i++ {
		ins = append(ins, instance.Op{Rel: "R", Row: row(i)})
	}
	apply(ins, nil)
	if got := len(v.rows.chunks); got != chunksFor(n) {
		t.Fatalf("%d rows in %d chunks, want %d", n, got, chunksFor(n))
	}
	pub := eng.PublishExtentIDs("V")
	pubWant := fmt.Sprint(pub.AppendRows(nil))

	// Shrink to an eighth, then by one more row to leave a partial chunk.
	var del []instance.Op
	for i := n/8 - 1; i < n; i++ {
		del = append(del, instance.Op{Rel: "R", Row: row(i)})
	}
	apply(nil, del)
	live := n/8 - 1
	if got := v.rows.len(); got != live {
		t.Fatalf("extent has %d rows, want %d", got, live)
	}
	if got := len(v.rows.chunks); got != chunksFor(live) {
		t.Fatalf("%d rows in %d chunks after the shrink, want %d", live, got, chunksFor(live))
	}
	if pub.Len() != n || fmt.Sprint(pub.AppendRows(nil)) != pubWant {
		t.Fatal("a header published before the shrink no longer reads its rows")
	}
	got := eng.Views()["V"]
	if len(got) != live {
		t.Fatalf("decoded extent has %d rows, want %d", len(got), live)
	}

	// Shrink to nothing: no chunk survives.
	del = del[:0]
	for i := 0; i < live; i++ {
		del = append(del, instance.Op{Rel: "R", Row: row(i)})
	}
	apply(nil, del)
	if v.rows.len() != 0 || len(v.rows.chunks) != 0 {
		t.Fatalf("empty extent keeps %d rows in %d chunks", v.rows.len(), len(v.rows.chunks))
	}
	if pub.Len() != n || fmt.Sprint(pub.AppendRows(nil)) != pubWant {
		t.Fatal("the published header changed when the extent emptied")
	}
}

// TestExtentDifferentialRandom drives random push / swap-remove / freeze
// sequences against a reference [][]uint32 with the same swap-remove
// semantics. Every header frozen along the way is re-read after all later
// mutations and must equal the reference as it was at its freeze: the
// epoch-immutability property published view extents rely on.
func TestExtentDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x extent
		var ref [][]uint32
		type frozen struct {
			h    ExtentHeader
			want [][]uint32
		}
		var saved []frozen
		next := uint32(0)
		for step := 0; step < 3000; step++ {
			switch r := rng.Float64(); {
			case r < 0.03:
				saved = append(saved, frozen{h: x.freeze(), want: append([][]uint32{}, ref...)})
			case r < 0.55 || len(ref) == 0:
				// Grow more often early, shrink more often late, so the
				// extent crosses chunk boundaries both ways and empties.
				if step > 2000 && rng.Intn(3) > 0 && len(ref) > 0 {
					continue
				}
				next++
				row := []uint32{next}
				x.push(row)
				ref = append(ref, row)
			default:
				pos := rng.Intn(len(ref))
				moved := x.swapRemove(pos)
				last := len(ref) - 1
				var want []uint32
				if pos != last {
					want = ref[last]
				}
				if !reflect.DeepEqual(moved, want) {
					t.Fatalf("seed %d step %d: swapRemove(%d) moved %v, want %v", seed, step, pos, moved, want)
				}
				ref[pos] = ref[last]
				ref = ref[:last]
			}
			if x.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, x.len(), len(ref))
			}
			if want := (len(ref) + extentChunkRows - 1) / extentChunkRows; len(x.chunks) != want {
				t.Fatalf("seed %d step %d: %d chunks for %d rows, want %d", seed, step, len(x.chunks), len(ref), want)
			}
		}
		if got := x.appendRows(nil); len(ref) > 0 && !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: live rows differ from the reference", seed)
		}
		for i, f := range saved {
			got := f.h.AppendRows(nil)
			if f.h.Len() != len(f.want) || len(got) != len(f.want) || (len(got) > 0 && !reflect.DeepEqual(got, f.want)) {
				t.Fatalf("seed %d: header %d of %d drifted after later mutations", seed, i, len(saved))
			}
		}
	}
}

// TestRestoredEngineRegistersSameIndexes: an engine built by enumeration
// and one restored from its checkpointed extents maintain the same join
// indexes, those the delta plans probe. The full plans of the initial
// enumeration need more (VSpend's acct(u, "emea") atom is probed by
// region there), and keeping those would make every later delete pay for
// indexes no plan reads.
func TestRestoredEngineRegistersSameIndexes(t *testing.T) {
	s := schema.New(
		schema.NewRelation("acct", "uid", "region"),
		schema.NewRelation("txn", "uid", "item", "amt"),
	)
	db := instance.NewDatabase(s)
	for i := 0; i < 40; i++ {
		region := "emea"
		if i%2 == 1 {
			region = fmt.Sprintf("r%d", i%5)
		}
		db.MustInsert("acct", fmt.Sprintf("u%d", i), region)
		for j := 0; j < 3; j++ {
			db.MustInsert("txn", fmt.Sprintf("u%d", i), fmt.Sprintf("it%d", (i+j)%7), fmt.Sprint(j))
		}
	}
	spend := cq.NewCQ([]cq.Term{cq.Var("u"), cq.Var("i")}, []cq.Atom{
		cq.NewAtom("acct", cq.Var("u"), cq.Cst("emea")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i"), cq.Var("a")),
	})
	pairs := cq.NewCQ([]cq.Term{cq.Var("i"), cq.Var("j")}, []cq.Atom{
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i"), cq.Var("a")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("j"), cq.Var("a")),
	})
	views := map[string]*cq.UCQ{"VSpend": cq.NewUCQ(spend), "VPairs": cq.NewUCQ(pairs)}

	indexSet := func(e *DeltaEngine) []string {
		var out []string
		for rel, rs := range e.rels {
			for key := range rs.indexes {
				out = append(out, rel+key)
			}
		}
		sort.Strings(out)
		return out
	}
	fresh, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, fresh.CheckpointExtents())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := indexSet(fresh), indexSet(restored); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh engine indexes %v, restored engine %v", got, want)
	}
}
