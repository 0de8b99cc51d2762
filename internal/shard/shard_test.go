package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/workload"
)

func fixtureSchema() (*schema.Schema, *access.Schema) {
	s := schema.New(
		schema.NewRelation("acct", "uid", "region"),
		schema.NewRelation("txn", "uid", "item", "amt"),
		schema.NewRelation("misc", "a", "b"),
	)
	a := access.NewSchema(
		access.NewConstraint("acct", []string{"uid"}, []string{"region"}, 1),
		access.NewConstraint("txn", []string{"uid"}, []string{"item", "amt"}, 8),
		access.NewConstraint("txn", []string{"uid", "item"}, []string{"amt"}, 2),
		access.NewConstraint("misc", nil, []string{"a", "b"}, 1000),
	)
	return s, a
}

// TestPartitionAttrsAndRoutes pins the partition-key choice (the X-set
// covered by the most constraints) and the per-constraint routing: X ⊇
// partition key routes, anything else broadcasts.
func TestPartitionAttrsAndRoutes(t *testing.T) {
	s, a := fixtureSchema()
	pt := NewPartition(s, a, 4)
	if got := pt.rels["acct"].Attrs; len(got) != 1 || got[0] != "uid" {
		t.Fatalf("acct partition attrs = %v, want [uid]", got)
	}
	// {uid} is a subset of both txn constraints' X-sets, {uid,item} only of
	// one: {uid} wins.
	if got := pt.rels["txn"].Attrs; len(got) != 1 || got[0] != "uid" {
		t.Fatalf("txn partition attrs = %v, want [uid]", got)
	}
	// misc has no constraint with non-empty X: full-row partitioning.
	if got := pt.rels["misc"].Attrs; len(got) != 2 {
		t.Fatalf("misc partition attrs = %v, want the full row", got)
	}
	if r := pt.Route(a.Constraints[0]); r == nil || r.XPos == nil {
		t.Fatal("acct(uid->region) must route")
	}
	if r := pt.Route(a.Constraints[2]); r == nil || r.XPos == nil {
		t.Fatal("txn(uid,item->amt) must route: X covers the partition key")
	}
	if r := pt.Route(a.Constraints[3]); r == nil || r.XPos != nil {
		t.Fatal("misc(∅->a,b) must broadcast")
	}
}

// applyOps encodes a string batch through the engine's dictionary, as
// the facade does, and applies it.
func applyOps(s *Sharded, inserts, deletes []instance.Op) (DeltaStats, error) {
	ins, del := instance.Encode(s.dict, inserts, deletes)
	st, _, err := s.ApplyDelta(ins, del)
	return st, err
}

// TestRoutingConsistency checks the load-bearing invariant: the shard a
// row is placed on equals the shard every routed fetch key for that row
// hashes to, so co-partitioned atoms land together. On the Sharded
// fixture at P = 8, each row's uid is fetched through both constraints on
// an epoch: exactly the probe counter of the row's shard moves, and the
// fetch returns the row.
func TestRoutingConsistency(t *testing.T) {
	w := workload.NewSharded(8)
	db := w.Generate(300, 5, 3)
	probes := obs.NewCore(8).ShardProbes
	sh, e, err := Open(db.Dict, db.IDTables(), w.Schema, w.Access, nil, Config{Shards: 8, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for rel, ids := range db.IDTables() {
		for _, row := range ids {
			want := sh.part.ShardOfIDs(rel, row)
			for _, c := range []*access.Constraint{w.Acct, w.Txn} {
				before := probes[want].Load()
				got, err := e.FetchIDs(c, row[:1])
				if err != nil {
					t.Fatal(err)
				}
				if probes[want].Load() != before+1 {
					t.Fatalf("%s%v: the uid's fetch through %s did not probe shard %d, where the row lives",
						rel, db.Dict.Decode(row), c, want)
				}
				// The fetch returns XY-projections (sorted attribute order):
				// compare the values as multisets.
				sorted := slices.Sorted(slices.Values(row))
				if c.Rel == rel && !slices.ContainsFunc(got, func(r []uint32) bool {
					return slices.Equal(slices.Sorted(slices.Values(r)), sorted)
				}) {
					t.Fatalf("%s%v: the uid's fetch through %s misses the row", rel, db.Dict.Decode(row), c)
				}
			}
			rows++
		}
	}
	total := int64(0)
	for _, c := range probes {
		total += c.Load()
	}
	if rows != 300*6 || total != int64(2*rows) {
		t.Fatalf("checked %d rows with %d probes, want %d rows, 2 probes each", rows, total, 300*6)
	}
}

// TestShardBalance: on the Sharded fixture (25k users, six rows each,
// partitioned by uid) every shard holds within ±5 % of |D|/P at P = 2, 3
// and 8 — the interned IDs are dense and small, and the hash must still
// spread them evenly.
func TestShardBalance(t *testing.T) {
	w := workload.NewSharded(8)
	db := w.Generate(25_000, 5, 11)
	tables := db.IDTables()
	for _, p := range []int{2, 3, 8} {
		pt := NewPartition(w.Schema, w.Access, p)
		sizes := make([]int, p)
		for rel, rows := range tables {
			for _, row := range rows {
				sizes[pt.ShardOfIDs(rel, row)]++
			}
		}
		fair := float64(db.Size()) / float64(p)
		for i, n := range sizes {
			if dev := float64(n)/fair - 1; dev < -0.05 || dev > 0.05 {
				t.Errorf("P = %d: shard %d holds %d rows, %+.1f%% off |D|/P = %.0f (sizes %v)", p, i, n, 100*dev, fair, sizes)
			}
		}
	}
}

// TestLocalViewAnalysis pins the co-partition analysis: joins on the
// partition key whose head keeps the key are shard-local, anything else
// is global.
func TestLocalViewAnalysis(t *testing.T) {
	s, a := fixtureSchema()
	pt := NewPartition(s, a, 4)
	local := func(def *cq.UCQ) bool {
		_, ok := pt.LocalView(def)
		return ok
	}
	mk := func(head []cq.Term, atoms ...cq.Atom) *cq.UCQ { return cq.NewUCQ(cq.NewCQ(head, atoms)) }

	// Single atom whose head keeps the key: local.
	if !local(mk([]cq.Term{cq.Var("u")}, cq.NewAtom("acct", cq.Var("u"), cq.Var("r")))) {
		t.Fatal("single-atom view must be local")
	}
	// A head that drops the key: the same row derives on many shards, so
	// the view is global — a projection and a Boolean view alike.
	if local(mk([]cq.Term{cq.Var("r")}, cq.NewAtom("acct", cq.Var("u"), cq.Var("r")))) {
		t.Fatal("a projection dropping the partition key must be global")
	}
	if local(mk(nil, cq.NewAtom("acct", cq.Var("u"), cq.Var("r")))) {
		t.Fatal("a Boolean view must be global")
	}
	// A union is local when every disjunct puts the key at the same head
	// position, global otherwise.
	acctTxn := func(txnHead []cq.Term) *cq.UCQ {
		return cq.NewUCQ(
			cq.NewCQ([]cq.Term{cq.Var("u"), cq.Var("r")}, []cq.Atom{cq.NewAtom("acct", cq.Var("u"), cq.Var("r"))}),
			cq.NewCQ(txnHead, []cq.Atom{cq.NewAtom("txn", cq.Var("v"), cq.Var("i"), cq.Var("x"))}))
	}
	if !local(acctTxn([]cq.Term{cq.Var("v"), cq.Var("i")})) {
		t.Fatal("a union keeping the key at one head position must be local")
	}
	if local(acctTxn([]cq.Term{cq.Var("i"), cq.Var("v")})) {
		t.Fatal("a union placing the key at different head positions must be global")
	}
	// Join on the shared partition key: local.
	coPart := mk([]cq.Term{cq.Var("u"), cq.Var("i")},
		cq.NewAtom("acct", cq.Var("u"), cq.Cst("emea")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i"), cq.Var("x")))
	if !local(coPart) {
		t.Fatal("join on the partition key must be local")
	}
	// Join on a non-partition column: global.
	crossPart := mk([]cq.Term{cq.Var("u")},
		cq.NewAtom("acct", cq.Var("u"), cq.Var("r")),
		cq.NewAtom("txn", cq.Var("v"), cq.Var("r"), cq.Var("x")))
	if local(crossPart) {
		t.Fatal("join across partition keys must be global")
	}
	// An equality that unifies the keys makes it local again (analysis
	// runs on the normalized disjunct).
	unified := cq.NewUCQ(cq.NewCQ([]cq.Term{cq.Var("u")},
		[]cq.Atom{
			cq.NewAtom("acct", cq.Var("u"), cq.Var("r")),
			cq.NewAtom("txn", cq.Var("v"), cq.Var("i"), cq.Var("x")),
		},
		cq.Equality{L: cq.Var("u"), R: cq.Var("v")}))
	if !local(unified) {
		t.Fatal("normalization must make the unified join local")
	}
}

// TestShardedOpenAndPointReads drives the engine directly: rows land on
// their shards, routed fetches answer from exactly one partition, and the
// gathered answer matches the per-shard contents.
func TestShardedOpenAndPointReads(t *testing.T) {
	s, a := fixtureSchema()
	db := instance.NewDatabase(s)
	const users = 50
	for i := 0; i < users; i++ {
		uid := fmt.Sprintf("u%d", i)
		db.MustInsert("acct", uid, "emea")
		for j := 0; j < 3; j++ {
			db.MustInsert("txn", uid, fmt.Sprintf("it%d", j), fmt.Sprintf("%d", j))
		}
	}
	views := map[string]*cq.UCQ{}
	sh, e, err := Open(db.Dict, db.IDTables(), s, a, views, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Size(); got != users*4 {
		t.Fatalf("size %d, want %d", got, users*4)
	}
	sizes := e.ShardSizes()
	nonEmpty := 0
	for _, n := range sizes {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("hash partitioning left the data on %d shard(s): %v", nonEmpty, sizes)
	}
	// Routed probe per uid against the current epoch: exactly the 3 txns.
	for i := 0; i < users; i++ {
		uid := sh.dict.ID(fmt.Sprintf("u%d", i))
		rows, err := e.FetchIDs(a.Constraints[1], []uint32{uid})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("u%d: fetched %d txns, want 3", i, len(rows))
		}
	}
	// Broadcast probe on misc (empty X): the gathered whole-relation scan.
	// The pinned epoch e must NOT see the delta; the new epoch must.
	if _, err := applyOps(sh, []instance.Op{
		{Rel: "misc", Row: instance.Tuple{"x", "y"}},
		{Rel: "misc", Row: instance.Tuple{"p", "q"}},
		{Rel: "misc", Row: instance.Tuple{"x", "y"}}, // duplicate: one projection
	}, nil); err != nil {
		t.Fatal(err)
	}
	if rows, err := e.FetchIDs(a.Constraints[3], nil); err != nil || len(rows) != 0 {
		t.Fatalf("pinned epoch observed a later batch: %v rows, err %v", len(rows), err)
	}
	rows, err := sh.last.FetchIDs(a.Constraints[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("broadcast fetch gathered %d distinct projections, want 2", len(rows))
	}
}

// TestBroadcastGather: a fetch whose X misses the partition key and whose
// XY leaves out the partition attribute reads every shard, and an
// XY-projection that rows on two shards share comes back once. The gather
// never writes into a slice a shard's index returned: after each of two
// gathers, every shard's own result reads the same to its capacity, so an
// append into its spare room would show.
func TestBroadcastGather(t *testing.T) {
	s, _ := fixtureSchema()
	byUID := access.NewConstraint("txn", []string{"uid"}, []string{"item", "amt"}, 8)
	byItem := access.NewConstraint("txn", []string{"item"}, []string{"amt"}, 64)
	a := access.NewSchema(byUID, byItem,
		access.NewConstraint("txn", []string{"uid", "item"}, []string{"amt"}, 2),
		access.NewConstraint("txn", []string{"amt", "uid"}, []string{"item"}, 2))
	// Every uid holds (x, shared) and (x, own-uid). Shard 0 gets two uids,
	// so its index answers x with three rows in a slice with spare room;
	// every other shard gets two or more.
	const p = 4
	pt := NewPartition(s, a, p)
	db := instance.NewDatabase(s)
	var uids [p]int
	users := 0
	for i := 0; slices.Min(uids[:]) < 2; i++ {
		uid := fmt.Sprintf("u%d", i)
		if si := pt.ShardOfIDs("txn", db.Dict.Encode([]string{uid, "x", "shared"})); si > 0 || uids[0] < 2 {
			uids[si]++
			users++
			db.MustInsert("txn", uid, "x", "shared")
			db.MustInsert("txn", uid, "x", "own-"+uid)
		}
	}
	_, e, err := Open(db.Dict, db.IDTables(), s, a, map[string]*cq.UCQ{}, Config{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	if r := e.part.Route(byItem); r == nil || r.XPos != nil {
		t.Fatal("txn(item->amt) must broadcast: its X misses the partition key uid")
	}
	x := []uint32{db.Dict.ID("x")}
	var own, before [p][][]uint32
	answering := 0
	for i, vx := range e.vixes {
		rows, err := vx.FetchIDs(byItem, x)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 0 {
			answering++
		}
		if i == 0 && (len(rows) != 3 || cap(rows) == len(rows)) {
			t.Fatalf("shard 0 answers x with %d rows and room for %d; the fixture needs 3 and spare room", len(rows), cap(rows))
		}
		own[i] = rows[:cap(rows)]
		before[i] = slices.Clone(own[i])
	}
	if answering < 2 {
		t.Fatalf("the rows of x sit on %d shard(s); the fixture needs two", answering)
	}
	for round := 1; round <= 2; round++ {
		got, err := e.FetchIDs(byItem, x)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, r := range got {
			seen[fmt.Sprint(db.Dict.Decode(r))]++
		}
		if len(got) != users+1 || len(seen) != users+1 || seen["[shared x]"] != 1 {
			t.Fatalf("gather %d: %d rows, %d distinct, the shared projection %d times; want %d distinct rows, the shared one once",
				round, len(got), len(seen), seen["[shared x]"], users+1)
		}
		for i := range own {
			if !slices.EqualFunc(own[i], before[i], slices.Equal) {
				t.Fatalf("gather %d wrote into shard %d's fetch result", round, i)
			}
		}
	}
}

// TestEpochKeepsUnchangedViewVersions: a batch that changes no view
// publishes an epoch serving every view from the previous epoch's view
// version, its rows and indices included; a batch that changes one view
// serves a new version of that view and the old version of every other.
func TestEpochKeepsUnchangedViewVersions(t *testing.T) {
	s, a := fixtureSchema()
	v := cq.Var
	views := map[string]*cq.UCQ{
		"accts": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("r")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r"))})),
		"regions": cq.NewUCQ(cq.NewCQ([]cq.Term{v("r")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r"))})),
		"items": cq.NewUCQ(cq.NewCQ([]cq.Term{v("i")},
			[]cq.Atom{cq.NewAtom("txn", v("u"), v("i"), v("x"))})),
	}
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			db := instance.NewDatabase(s)
			db.MustInsert("acct", "u1", "emea")
			db.MustInsert("txn", "u1", "it1", "9")
			sh, _, err := Open(db.Dict, db.IDTables(), s, a, views, Config{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			versions := func() map[string]*plan.ViewVersion {
				out := make(map[string]*plan.ViewVersion)
				for name, vv := range sh.last.Prepared().All() {
					out[name] = vv
				}
				return out
			}
			apply := func(ins ...instance.Op) DeltaStats {
				t.Helper()
				st, err := applyOps(sh, ins, nil)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			before := versions()
			// A relation no view reads, and a second copy of a stored row:
			// no view's extent moves.
			st := apply(instance.Op{Rel: "misc", Row: instance.Tuple{"x", "y"}},
				instance.Op{Rel: "acct", Row: instance.Tuple{"u1", "emea"}})
			if st.ViewsChanged != 0 {
				t.Fatalf("the batch changed %d views, want 0", st.ViewsChanged)
			}
			// Both copies of acct(u1, emea) deleted and one inserted back:
			// the row's accts and regions rows leave and enter again, and
			// neither extent moves.
			u1 := instance.Op{Rel: "acct", Row: instance.Tuple{"u1", "emea"}}
			if st, err := applyOps(sh, []instance.Op{u1}, []instance.Op{u1, u1}); err != nil || st.ViewsChanged != 0 {
				t.Fatalf("the leave-and-re-enter batch changed %d views (%v), want 0", st.ViewsChanged, err)
			}
			kept := versions()
			for name := range views {
				if kept[name] != before[name] {
					t.Fatalf("view %s: a batch that left it unchanged published a new version", name)
				}
			}
			// A new item changes items alone.
			if st := apply(instance.Op{Rel: "txn", Row: instance.Tuple{"u2", "it2", "1"}}); st.ViewsChanged != 1 {
				t.Fatalf("the batch changed %d views, want 1", st.ViewsChanged)
			}
			after := versions()
			for name := range views {
				if changed := name == "items"; (after[name] != kept[name]) != changed {
					t.Fatalf("view %s: new version %v, want %v", name, after[name] != kept[name], changed)
				}
			}
			if rows := sh.last.AllViewIDs()["items"]; len(rows) != 2 {
				t.Fatalf("items serves %d rows after the insert, want 2", len(rows))
			}
		})
	}
}

// TestStaleVIndexRejectionIsTorn: a fetch-index rejection raised after a
// shard resolved and started applying its slice surfaces as ErrTorn. The
// shard is handed an index version from before a row it stores (ghost),
// so the index refuses that row's delete while the engine accepts it.
func TestStaleVIndexRejectionIsTorn(t *testing.T) {
	s, a := fixtureSchema()
	db := instance.NewDatabase(s)
	db.MustInsert("acct", "u1", "emea")
	sh, _, err := Open(db.Dict, db.IDTables(), s, a, map[string]*cq.UCQ{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale := sh.shards[0].vix
	ghost := instance.Op{Rel: "acct", Row: instance.Tuple{"ghost", "apac"}}
	if _, err := applyOps(sh, []instance.Op{ghost}, nil); err != nil {
		t.Fatal(err)
	}
	sh.shards[0].vix = stale
	_, err = applyOps(sh, nil, []instance.Op{ghost})
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("stale index rejection must wrap ErrTorn, got %v", err)
	}
	if got := sh.last.Size(); got != 2 {
		t.Fatalf("the torn batch published: size %d, want the last epoch's 2", got)
	}
}

// TestRoutedProbeAllocs: a routed fetch on a P = 8 epoch — constraint
// lookup, route, hash, per-shard probe telemetry and the owning shard's
// index probe — allocates nothing.
func TestRoutedProbeAllocs(t *testing.T) {
	w := workload.NewSharded(8)
	db := w.Generate(200, 5, 3)
	probes := obs.NewCore(8).ShardProbes
	sh, e, err := Open(db.Dict, db.IDTables(), w.Schema, w.Access, w.Views(), Config{Shards: 8, Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	uid := []uint32{sh.dict.ID(w.UID(7))}
	var rows [][]uint32
	allocs := testing.AllocsPerRun(100, func() { rows, _ = e.FetchIDs(w.Txn, uid) })
	if len(rows) != 5 {
		t.Fatalf("routed probe fetched %d rows, want 5", len(rows))
	}
	if allocs != 0 {
		t.Fatalf("a routed P = 8 probe allocates %.1f times, want 0", allocs)
	}
}
