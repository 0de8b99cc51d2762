package plan_test

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
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

// idViews serves already-interned extents as view versions, the way an
// epoch serves its live extents; a view's arity is its first row's width.
func idViews(ix *instance.VIndex, rows map[string][][]uint32) *plan.PreparedViews {
	views := make(map[string]*plan.ViewVersion, len(rows))
	for name, ext := range rows {
		arity := 0
		if len(ext) > 0 {
			arity = len(ext[0])
		}
		views[name] = plan.NewViewVersion(arity, func() [][]uint32 { return ext })
	}
	return plan.NewPreparedViews(ix.Dict(), views)
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
	slices.SortFunc(got, slices.Compare)
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

// TestViewVersionResolveOnceUnderConcurrency covers the epoch
// publication path: a view version resolves its extent through a compute
// function that runs on the version's FIRST read only, however many
// readers race for it, and never for views no plan reads.
func TestViewVersionResolveOnceUnderConcurrency(t *testing.T) {
	db, ix, enc := preparedFixture(t)
	var computes, untouchedComputes atomic.Int64
	version := func(counter *atomic.Int64, rows ...string) *plan.ViewVersion {
		return plan.NewViewVersion(1, func() [][]uint32 {
			counter.Add(1)
			return enc(rows...)
		})
	}
	pv := plan.NewPreparedViews(db.Dict, map[string]*plan.ViewVersion{
		"V":         version(&computes, "a", "b"),
		"Untouched": version(&untouchedComputes, "x"),
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
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one view version, want 1", n)
	}
	if n := untouchedComputes.Load(); n != 0 {
		t.Fatalf("compute ran %d times for a view no plan read, want 0", n)
	}

	// Unknown views error.
	if _, _, err := plan.Run(&plan.View{Name: "Nope", Cols: []string{"x"}}, ix, pv); err == nil {
		t.Fatal("unknown view must error")
	}
}
