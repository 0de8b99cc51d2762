package plan

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/parse"
)

// fuzzSeenKeys maps cache keys to the first query observed with that key,
// across the whole fuzz run: any later query with the same key must be
// equivalent (keys are renderings of the canonical query, so a collision
// between non-equivalent queries would poison the prepared-query cache).
var fuzzSeenKeys sync.Map

// FuzzQueryKey checks the canonicalization invariants on parser-built
// queries: renamings and atom reorderings share a key, String()/ParseQuery
// round-trips preserve the key, and within the corpus equal keys only ever
// join equivalent queries.
func FuzzQueryKey(f *testing.F) {
	f.Add(`Q(x) :- R(x, y), S(y, "c").`, uint8(1))
	f.Add(`Q(a, a) :- E(a, b), E(b, c), E(c, a).`, uint8(3))
	f.Add(`Q(x) :- R(x, x), R(y, y), x = y.`, uint8(0))
	f.Add(`Q("k") :- T(z), T(w).`, uint8(7))
	f.Fuzz(func(t *testing.T, src string, seed uint8) {
		q, err := parse.Query(src)
		if err != nil {
			t.Skip()
		}
		u := cq.NewUCQ(q)
		key := QueryKey(u)

		// Round-trip: the printed form must re-parse to the same key.
		back, err := parse.Query(q.String())
		if err != nil {
			t.Fatalf("String() does not re-parse: %v\n%s", err, q.String())
		}
		if k2 := QueryKey(cq.NewUCQ(back)); k2 != key {
			t.Fatalf("round-trip changed the key:\n%s\n%s", key, k2)
		}

		// Injective renaming + deterministic reordering must not move the key.
		ren := renameQuery(q)
		rot := int(seed)
		if n := len(ren.Atoms); n > 1 {
			rot %= n
			ren.Atoms = append(ren.Atoms[rot:], ren.Atoms[:rot]...)
		}
		if k2 := QueryKey(cq.NewUCQ(ren)); k2 != key {
			t.Fatalf("renaming/reordering changed the key:\nquery: %s\nvariant: %s\n%s\n%s",
				q, ren, key, k2)
		}

		// Corpus-wide collision check: same key => equivalent queries.
		// (Chandra-Merlin is exponential, so only verify small queries.)
		if prev, loaded := fuzzSeenKeys.LoadOrStore(key, q); loaded {
			p := prev.(*cq.CQ)
			if len(p.Atoms) <= 4 && len(q.Atoms) <= 4 && p.String() != q.String() {
				n1, err1 := p.Normalize()
				n2, err2 := q.Normalize()
				if err1 == nil && err2 == nil && !cq.Equivalent(n1, n2) {
					t.Fatalf("key collision between non-equivalent queries:\n%s\n%s\nkey %s", p, q, key)
				}
			}
		}
	})
}

// renameQuery applies an injective variable renaming (reverse first-seen
// order, fresh names) to a copy of the query.
func renameQuery(q *cq.CQ) *cq.CQ {
	vars := q.Vars()
	m := make(map[string]string, len(vars))
	for i, v := range vars {
		m[v] = fmt.Sprintf("fzv%d", len(vars)-i)
	}
	out := q.Clone()
	sub := func(t cq.Term) cq.Term {
		if t.Const {
			return t
		}
		return cq.Var(m[t.Val])
	}
	for i, t := range out.Head {
		out.Head[i] = sub(t)
	}
	for i, a := range out.Atoms {
		for j, t := range a.Args {
			out.Atoms[i].Args[j] = sub(t)
		}
	}
	for i, e := range out.Eqs {
		out.Eqs[i] = cq.Equality{L: sub(e.L), R: sub(e.R)}
	}
	return out
}

// fuzzSeenBindings maps a template key plus binding to the concrete key
// first observed with them, across the whole fuzz run.
var fuzzSeenBindings sync.Map

// FuzzQueryTemplate checks the template invariants of Abstract on
// parser-built queries, with the constants mask selects playing the view
// constants: instantiating the abstract query with its binding gives back
// the original key; a bijective renaming of the abstracted constants keeps
// the template key; and within the corpus, equal template keys with equal
// bindings only ever come from queries with equal keys.
func FuzzQueryTemplate(f *testing.F) {
	f.Add(`Q(x) :- R(x, "a"), S("a", "b").`, uint8(0))
	f.Add(`Q(x) :- R(x, "emea"), S(x, "u1").`, uint8(1))
	f.Add(`Q("k", y) :- T(y, "k"), "p" = "q".`, uint8(2))
	f.Add(`Q(x) :- R(x, y), x = "c", y = "c".`, uint8(0))
	f.Fuzz(func(t *testing.T, src string, mask uint8) {
		q, err := parse.Query(src)
		if err != nil {
			t.Skip()
		}
		u := cq.NewUCQ(q)
		consts := q.Constants()
		fixed := map[string]bool{}
		for i, c := range consts {
			if mask&(1<<(i%8)) != 0 {
				fixed[c] = true
			}
		}
		abs, b := Abstract(u, fixed)
		key, tkey := QueryKey(u), QueryKey(abs)
		if k := QueryKey(b.Query(abs)); k != key {
			t.Fatalf("instantiated template changed the key:\nquery %s\n%s\n%s", q, key, k)
		}
		seen := map[string]bool{}
		for _, c := range b {
			if fixed[c] || seen[c] {
				t.Fatalf("binding %q of %s holds a fixed or repeated constant %q", []string(b), q, c)
			}
			seen[c] = true
		}
		for _, c := range abs.Disjuncts[0].Constants() {
			if !fixed[c] && b.value(c) == c {
				t.Fatalf("constant %q of %s survived abstraction", c, q)
			}
		}

		// Renaming the abstracted constants bijectively keeps the shape.
		ren := map[string]string{}
		for _, c := range b {
			r := c + "\x01r"
			if fixed[r] || seen[r] {
				t.Skip()
			}
			ren[c] = r
		}
		q2 := mapConsts(q, func(tm cq.Term) cq.Term {
			if r, ok := ren[tm.Val]; tm.Const && ok {
				tm.Val = r
			}
			return tm
		})
		abs2, b2 := Abstract(cq.NewUCQ(q2), fixed)
		if k := QueryKey(abs2); k != tkey {
			t.Fatalf("renaming constants changed the template key:\n%s\n%s\n%s", q, tkey, k)
		}
		if k, want := QueryKey(b2.Query(abs2)), QueryKey(cq.NewUCQ(q2)); k != want {
			t.Fatalf("instantiated renamed template changed the key:\n%s\n%s", want, k)
		}

		// Corpus-wide: same template key and binding => same concrete key.
		id := tkey + "\x00"
		for _, c := range b {
			id += strconv.Quote(c)
		}
		if prev, loaded := fuzzSeenBindings.LoadOrStore(id, key); loaded && prev.(string) != key {
			t.Fatalf("equal template key and binding, different keys:\n%s\n%s", prev, key)
		}
	})
}
