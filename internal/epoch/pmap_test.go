package epoch

import (
	"math/rand"
	"testing"
)

// TestMapDifferentialRandom drives random Set/Delete/Get traffic against a
// plain Go map, checking every version's Len and a sample of lookups, and
// that OLD versions stay exactly what they were (persistence).
func TestMapDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMap[int]()
	oracle := map[uint64]int{}

	type version struct {
		m      *Map[int]
		frozen map[uint64]int
	}
	var saved []version
	keyPool := make([]uint64, 400)
	for i := range keyPool {
		// Mix of clustered keys (shared high bits, forcing deep splits) and
		// uniform ones.
		if i%3 == 0 {
			keyPool[i] = uint64(i) << 58 // collide on all low chunks
		} else {
			keyPool[i] = rng.Uint64()
		}
	}

	for step := 0; step < 5000; step++ {
		k := keyPool[rng.Intn(len(keyPool))]
		if rng.Float64() < 0.35 {
			m = m.Delete(k)
			delete(oracle, k)
		} else {
			v := rng.Int()
			m = m.Set(k, v)
			oracle[k] = v
		}
		if m.Len() != len(oracle) {
			t.Fatalf("step %d: Len %d, oracle %d", step, m.Len(), len(oracle))
		}
		if step%500 == 0 {
			frozen := make(map[uint64]int, len(oracle))
			for k, v := range oracle {
				frozen[k] = v
			}
			saved = append(saved, version{m: m, frozen: frozen})
		}
	}

	check := func(m *Map[int], want map[uint64]int) {
		t.Helper()
		checkMap(t, m, want, keyPool)
	}
	check(m, oracle)
	// Every saved version must still read exactly as frozen — later churn
	// on successor versions must not have leaked in.
	for i, v := range saved {
		check(v.m, v.frozen)
		if v.m.Len() != len(v.frozen) {
			t.Fatalf("saved version %d: Len drifted", i)
		}
	}
}

// checkMap asserts that m holds exactly want: every pool key reads as in
// want, Range surfaces only want's entries, and Len agrees.
func checkMap(t *testing.T, m *Map[int], want map[uint64]int, keyPool []uint64) {
	t.Helper()
	for _, k := range keyPool {
		got, ok := m.Get(k)
		wv, wok := want[k]
		if ok != wok || (ok && got != wv) {
			t.Fatalf("key %x: got (%d,%v) want (%d,%v)", k, got, ok, wv, wok)
		}
	}
	n := 0
	m.Range(func(k uint64, v int) bool {
		if wv, ok := want[k]; !ok || wv != v {
			t.Fatalf("Range surfaced (%x,%d) not in oracle", k, v)
		}
		n++
		return true
	})
	if n != len(want) || m.Len() != len(want) {
		t.Fatalf("Range visited %d entries, Len %d, want %d", n, m.Len(), len(want))
	}
}

// TestMapTransientDifferential runs batches of random SetIn/DeleteIn
// traffic, each under a fresh Edit token, against a plain Go map. Before
// each batch takes its token the current version is published (saved
// with a frozen copy of the oracle); after every batch, every published
// version must still read exactly as frozen — in-place edits under a
// token never reach a node an earlier version can see. Every fourth
// batch writes without a token (Set/Delete), so token-owned nodes are
// also inherited by plain persistent writes.
func TestMapTransientDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keyPool := make([]uint64, 600)
	for i := range keyPool {
		if i%3 == 0 {
			keyPool[i] = uint64(i) << 58 // collide on all low chunks
		} else {
			keyPool[i] = rng.Uint64()
		}
	}
	type version struct {
		m      *Map[int]
		frozen map[uint64]int
	}
	var saved []version
	m := NewMap[int]()
	oracle := map[uint64]int{}
	for batch := 0; batch < 60; batch++ {
		frozen := make(map[uint64]int, len(oracle))
		for k, v := range oracle {
			frozen[k] = v
		}
		saved = append(saved, version{m: m, frozen: frozen})

		var ed *Edit
		if batch%4 != 3 {
			ed = new(Edit)
		}
		for op := 0; op < 1+rng.Intn(300); op++ {
			k := keyPool[rng.Intn(len(keyPool))]
			if rng.Float64() < 0.4 {
				m = m.DeleteIn(ed, k)
				delete(oracle, k)
			} else {
				v := rng.Int()
				m = m.SetIn(ed, k, v)
				oracle[k] = v
			}
			if m.Len() != len(oracle) {
				t.Fatalf("batch %d op %d: Len %d, oracle %d", batch, op, m.Len(), len(oracle))
			}
		}
		checkMap(t, m, oracle, keyPool)
		for i, v := range saved {
			if v.m.Len() != len(v.frozen) {
				t.Fatalf("batch %d: version %d's Len drifted", batch, i)
			}
			checkMap(t, v.m, v.frozen, keyPool)
		}
	}
}

// editSink makes the tokens of TestEditTokensDistinct escape to the heap,
// where allocations of a zero-sized type share one address.
var editSink []*Edit

// TestEditTokensDistinct: tokens are compared by address, so two tokens
// must never share one (a zero-sized type could).
func TestEditTokensDistinct(t *testing.T) {
	editSink = append(editSink[:0], new(Edit), new(Edit))
	if editSink[0] == editSink[1] {
		t.Fatal("two Edit tokens share an address")
	}
}

// TestMapSetInCopiesOncePerBatch: once a batch token owns the path to a
// key, rewriting that key under the same token allocates nothing — the
// path is copied once per batch, not once per op.
func TestMapSetInCopiesOncePerBatch(t *testing.T) {
	const mix = 0x9E3779B97F4A7C15
	m := NewMap[int]()
	for i := uint64(0); i < 5000; i++ {
		m = m.Set(i*mix, int(i))
	}
	base := m
	ed := new(Edit)
	i42 := uint64(42)
	k := i42 * mix
	m = m.SetIn(ed, k, -1)
	if allocs := testing.AllocsPerRun(50, func() { m = m.SetIn(ed, k, -2) }); allocs != 0 {
		t.Fatalf("rewrite under the owning token allocated %.0f times", allocs)
	}
	if v, _ := base.Get(k); v != 42 {
		t.Fatalf("the version before the token reads %d, want 42", v)
	}
	if v, _ := m.Get(k); v != -2 {
		t.Fatalf("the edited version reads %d, want -2", v)
	}
}

func TestMapDeleteAbsentReturnsReceiver(t *testing.T) {
	m := NewMap[string]().Set(7, "a")
	if m2 := m.Delete(99); m2 != m {
		t.Fatal("deleting an absent key must return the receiver unchanged")
	}
	if m2 := m.Delete(7); m2.Len() != 0 {
		t.Fatalf("Len after delete = %d", m2.Len())
	}
}

func TestMapRangeEarlyStop(t *testing.T) {
	m := NewMap[int]()
	for i := uint64(0); i < 100; i++ {
		m = m.Set(i*2654435761, int(i))
	}
	n := 0
	m.Range(func(uint64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range visited %d entries after early stop", n)
	}
}

// buildFixture returns n distinct keys, a third of them clustered so they
// collide on all low chunks (forcing deep chains), with their values.
func buildFixture(n int) ([]Entry[int], map[uint64]int, []uint64) {
	rng := rand.New(rand.NewSource(11))
	want := make(map[uint64]int, n)
	pool := make([]uint64, 0, n+1)
	for i := 0; len(want) < n; i++ {
		k := rng.Uint64()
		if i%3 == 0 {
			k = uint64(i) << 58
		}
		if _, dup := want[k]; !dup {
			want[k] = i
			pool = append(pool, k)
		}
	}
	entries := make([]Entry[int], 0, n)
	for k, v := range want {
		entries = append(entries, Entry[int]{Key: k, Val: v})
	}
	return entries, want, append(pool, 12345) // plus an absent key
}

// TestBuildMatchesSetIn: a bulk-built map holds exactly what a run of
// SetIn under one token builds from the same entries.
func TestBuildMatchesSetIn(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 5000} {
		entries, want, pool := buildFixture(n)
		ed := new(Edit)
		inc := NewMap[int]()
		for _, e := range entries {
			inc = inc.SetIn(ed, e.Key, e.Val)
		}
		checkMap(t, inc, want, pool)
		checkMap(t, Build(entries), want, pool)
	}
}

// TestBuildExactSize: every node of a bulk-built map is allocated at its
// exact size, and none belongs to an Edit token.
func TestBuildExactSize(t *testing.T) {
	entries, _, _ := buildFixture(20000)
	nodes := 0
	var walk func(n *node[int])
	walk = func(n *node[int]) {
		nodes++
		if len(n.slots) != cap(n.slots) {
			t.Fatalf("node with %d slots has capacity %d", len(n.slots), cap(n.slots))
		}
		if n.edit != nil {
			t.Fatal("bulk-built node owned by an Edit token")
		}
		for i := range n.slots {
			if c := n.slots[i].child; c != nil {
				walk(c)
			}
		}
	}
	walk(Build(entries).root)
	if nodes < 2 {
		t.Fatalf("walked %d nodes, want a multi-level trie", nodes)
	}
}

// TestBuildThenSetInLeavesBuiltVersion: writes under a fresh token after
// a bulk build copy the nodes they touch, so the built version still
// reads exactly as built.
func TestBuildThenSetInLeavesBuiltVersion(t *testing.T) {
	entries, want, pool := buildFixture(3000)
	built := Build(entries)
	ed := new(Edit)
	m := built
	oracle := make(map[uint64]int, len(want))
	for k, v := range want {
		oracle[k] = v
	}
	for i, k := range pool {
		if i%2 == 0 {
			m = m.SetIn(ed, k, -i)
			oracle[k] = -i
		} else {
			m = m.DeleteIn(ed, k)
			delete(oracle, k)
		}
	}
	checkMap(t, m, oracle, pool)
	checkMap(t, built, want, pool)
}

func TestBuildDuplicateKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build must reject a duplicate key")
		}
	}()
	Build([]Entry[int]{{Key: 7, Val: 1}, {Key: 7, Val: 2}})
}
