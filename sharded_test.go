package repro

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestWithShardsRejectsNonPositive: Open refuses a shard count below 1,
// in memory and durable, instead of picking one silently; the durable
// directory stays fresh for a valid open afterwards.
func TestWithShardsRejectsNonPositive(t *testing.T) {
	sys, m := movieSystem(t)
	gen := func() *Database {
		return m.Generate(workload.MoviesParams{Persons: 40, Movies: 40, LikesPerPerson: 2, NASAShare: 8, Seed: 3})
	}
	dir := t.TempDir()
	for _, p := range []int{0, -3} {
		for _, extra := range [][]OpenOption{nil, {WithDurability(dir)}} {
			h, err := sys.Open(gen(), append([]OpenOption{WithShards(p)}, extra...)...)
			if err == nil {
				h.Close()
				t.Fatalf("WithShards(%d) must be rejected", p)
			}
			if !strings.Contains(err.Error(), "need at least 1 shard") {
				t.Fatalf("WithShards(%d): unexpected error %v", p, err)
			}
		}
	}
	h, err := sys.Open(gen(), WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if rec := h.(*Live).Recovery(); rec != (RecoveryInfo{}) {
		t.Fatalf("a rejected open left durable state behind: %+v", rec)
	}
}

// ---- fixture-level end-to-end, concurrency and aliasing tests ----

func shardedFixture(t *testing.T, users, txns, shards int) (*System, *workload.Sharded, *Live, *Database) {
	t.Helper()
	w, sys, db := shardedWorkload(t, users, txns)
	h, err := sys.Open(db.Clone(), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, h.(*Live), db
}

// TestShardedFixtureServesPointReadsAndViews checks the fixture
// end-to-end: the join view is classified shard-local, prepared point
// queries stay within the fetch bound at any shard count, and both the
// point-read and the gather execution paths answer exactly like
// recomputation.
func TestShardedFixtureServesPointReadsAndViews(t *testing.T) {
	sys, w, sl, snapshot := shardedFixture(t, 400, 5, 4)
	local, global := sl.LocalViews()
	if len(local) != 2 || len(global) != 0 {
		t.Fatalf("VSpend and VPairs must be shard-local (co-partitioned joins): local=%v global=%v", local, global)
	}
	ch := w.NewChurn(snapshot, 23)
	for b := 0; b < 8; b++ {
		ins, del := ch.Batch(120)
		if _, err := sl.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	// Point reads: every uid's prepared query routes, stays bounded, and
	// matches direct evaluation over the mirrored database.
	for i := 0; i < 25; i++ {
		uid := w.UID(i * 7)
		pq, err := sys.Prepare(NewUCQ(w.Query(uid)), LangCQ)
		if err != nil {
			t.Fatalf("uid %s: %v", uid, err)
		}
		rows, fetched, err := pq.Execute(sl)
		if err != nil {
			t.Fatal(err)
		}
		if fetched > w.NTxn {
			t.Fatalf("uid %s: fetched %d > NTxn=%d — point read lost its bound under sharding", uid, fetched, w.NTxn)
		}
		direct, err := sys.EvalDirect(NewUCQ(w.Query(uid)), snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if !cq.RowsEqual(rows, direct) {
			t.Fatalf("uid %s: sharded answers diverge from recomputation", uid)
		}
	}
	// Gather path: a selection over the shard-local view.
	vplan := &plan.Select{
		Child: &plan.View{Name: "VSpend", Cols: []string{"u", "i"}},
		Cond:  []plan.CondItem{{L: "u", RConst: true, R: w.UID(0)}},
	}
	rows, fetched, err := sl.Execute(vplan)
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 0 {
		t.Fatalf("view-only plan fetched %d tuples from D", fetched)
	}
	vdef := w.Views()["VSpend"]
	wantAll, err := sys.EvalDirect(vdef, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, r := range wantAll {
		if r[0] == w.UID(0) {
			want = append(want, r)
		}
	}
	if !cq.RowsEqual(rows, want) {
		t.Fatalf("gathered view selection diverges: got %v want %v", rows, want)
	}
}

// TestShardedNoAliasingOfViewsAndResults mirrors the PR 3 aliasing
// regression for the sharded handle: corrupting everything a caller can
// reach (view snapshots, prepared results) must not change what is served
// next.
func TestShardedNoAliasingOfViewsAndResults(t *testing.T) {
	sys, w, sl, snapshot := shardedFixture(t, 200, 4, 3)
	pq, err := sys.Prepare(NewUCQ(w.Query(w.UID(2))), LangCQ)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	snap := sl.Views()
	for name, rows := range snap {
		for _, row := range rows {
			for i := range row {
				row[i] = "CORRUPTED"
			}
		}
		snap[name] = append(rows, []string{"bogus", "bogus"})
	}
	got1, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got1 {
		for i := range row {
			row[i] = "CORRUPTED"
		}
	}
	fresh := sl.Views()
	mats, err := sys.Materialize(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRows := range mats {
		if !cq.RowsEqual(fresh[name], wantRows) {
			t.Fatalf("view %s served corrupted rows after caller mutation", name)
		}
	}
	got2, _, err := pq.Execute(sl)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.RowsEqual(got2, want) {
		t.Fatalf("prepared results alias internal storage: %v vs %v", got2, want)
	}
}
