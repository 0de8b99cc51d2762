package plan_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/schema"
)

func preparedFixture(t *testing.T) (*instance.Database, *instance.VIndex, func(rows ...string) [][]uint32) {
	t.Helper()
	s := schema.New(schema.NewRelation("R", "A"))
	db := instance.NewDatabase(s)
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), access.NewSchema())
	if err != nil {
		t.Fatal(err)
	}
	enc := func(rows ...string) [][]uint32 {
		out := make([][]uint32, len(rows))
		for i, v := range rows {
			out[i] = []uint32{db.Dict.ID(v)}
		}
		return out
	}
	return db, ix, enc
}

// idViews serves already-interned extents through a fill, the way an
// epoch serves its live extents.
func idViews(ix *instance.VIndex, rows map[string][][]uint32) *plan.PreparedViews {
	return plan.NewLazyPreparedViews(ix.Dict(), func(name string) ([][]uint32, bool) {
		ext, ok := rows[name]
		return ext, ok
	})
}

// TestPreparedIDViewsServeWithoutReencoding covers the zero-copy path: a
// fill serves already-interned extents (e.g. the live extents of an
// epoch) without re-encoding, including rows over IDs interned after the
// database was indexed.
func TestPreparedIDViewsServeWithoutReencoding(t *testing.T) {
	_, ix, enc := preparedFixture(t)
	node := &plan.View{Name: "V", Cols: []string{"x"}}

	pv := idViews(ix, map[string][][]uint32{"V": enc("a", "b")})
	got, _, err := plan.Run(node, ix, pv)
	if err != nil {
		t.Fatal(err)
	}
	eval.SortRows(got)
	if !reflect.DeepEqual(got, [][]string{{"a"}, {"b"}}) {
		t.Fatalf("initial extent: %v", got)
	}

	// A dictionary growing (new live values) must not invalidate the
	// prepared machinery: extents over fresh IDs just work.
	pv2 := idViews(ix, map[string][][]uint32{"V": enc("zz-fresh")})
	got, _, err = plan.Run(node, ix, pv2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, [][]string{{"zz-fresh"}}) {
		t.Fatalf("fresh-value extent: %v", got)
	}
}

// TestLazyPreparedViewsResolveOnceUnderConcurrency covers the epoch
// publication path: a lazy view set resolves extents through a
// thread-safe fill whose expensive merge runs on FIRST read only (the
// provider memoizes, mirroring the sharded epoch's per-view sync.Once),
// and the merge never runs for views no plan reads.
func TestLazyPreparedViewsResolveOnceUnderConcurrency(t *testing.T) {
	db, ix, enc := preparedFixture(t)
	var fills, untouchedFills atomic.Int64
	memo := func(name string, counter *atomic.Int64, rows ...string) func() [][]uint32 {
		var once sync.Once
		var ext [][]uint32
		return func() [][]uint32 {
			once.Do(func() {
				counter.Add(1)
				ext = enc(rows...)
			})
			return ext
		}
	}
	views := map[string]func() [][]uint32{
		"V":         memo("V", &fills, "a", "b"),
		"Untouched": memo("Untouched", &untouchedFills, "x"),
	}
	pv := plan.NewLazyPreparedViews(db.Dict, func(name string) ([][]uint32, bool) {
		f, ok := views[name]
		if !ok {
			return nil, false
		}
		return f(), true
	})
	node := &plan.View{Name: "V", Cols: []string{"x"}}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, _, err := plan.Run(node, ix, pv)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != 2 {
					t.Errorf("lazy extent served %d rows", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("merge ran %d times for one view, want 1 (provider memoization)", n)
	}
	if n := untouchedFills.Load(); n != 0 {
		t.Fatalf("merge ran %d times for a view no plan read, want 0", n)
	}

	// Unknown views error.
	if _, _, err := plan.Run(&plan.View{Name: "Nope", Cols: []string{"x"}}, ix, pv); err == nil {
		t.Fatal("unknown view must error")
	}
}
