package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/plan"
)

// scanStats is the statistics a scan gives: the union of every shard's
// stored rows, and every view's extent as the epoch serves it with
// repeated rows dropped, counted column by column over distinct rows. It
// is the reference the published statistics must equal at every epoch.
func scanStats(t *testing.T, s *Sharded) *plan.Stats {
	t.Helper()
	st := &plan.Stats{
		RelRows:      make(map[string]int),
		RelDistinct:  make(map[string]map[string]int),
		ViewRows:     make(map[string]int),
		ViewDistinct: make(map[string][]int),
	}
	tables := s.CheckpointTables()
	for _, rel := range s.schema.Relations {
		rows := tables[rel.Name]
		st.RelRows[rel.Name] = len(rows)
		byAttr := make(map[string]int)
		for i, c := range distinctCols(dedup(rows), rel.Arity()) {
			byAttr[rel.Attrs[i]] = c
		}
		st.RelDistinct[rel.Name] = byAttr
	}
	for name := range s.views {
		rows := s.last.AllViewIDs()[name]
		set := dedup(rows)
		if len(set) != len(rows) {
			t.Fatalf("view %s: the epoch's extent repeats rows (%d rows, %d distinct)", name, len(rows), len(set))
		}
		st.ViewRows[name] = len(set)
		st.ViewDistinct[name] = distinctCols(set, s.views[name].Arity())
	}
	return st
}

// dedup returns the distinct rows of rows.
func dedup(rows [][]uint32) [][]uint32 {
	seen := make(map[string]bool, len(rows))
	var out [][]uint32
	for _, r := range rows {
		if k := fmt.Sprint(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// distinctCols counts the distinct IDs in each column of rows.
func distinctCols(rows [][]uint32, arity int) []int {
	seen := make([]map[uint32]bool, arity)
	for i := range seen {
		seen[i] = make(map[uint32]bool)
	}
	for _, r := range rows {
		for i, v := range r {
			seen[i][v] = true
		}
	}
	out := make([]int, len(seen))
	for i, m := range seen {
		out[i] = len(m)
	}
	return out
}

// TestPublishedStatsMatchScan drives random batches — duplicate copies,
// deletes of stored and absent rows, a row deleted and re-inserted in one
// batch — through engines at P = 1, 2, 4 and 8, and after Open and every
// ApplyDelta compares the current epoch's statistics with a scan of the
// shards' rows and the served extents, and with the statistics of a P = 1
// engine fed the same batches: statistics are a property of D, not of P.
// The views cover shard-local joins and unions, heads that drop the
// partition key (a projection, a Boolean view, a union), joins across
// partition keys and a self-join.
func TestPublishedStatsMatchScan(t *testing.T) {
	s, a := fixtureSchema()
	v := cq.Var
	views := map[string]*cq.UCQ{
		"accts": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("r")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r"))})),
		"regions": cq.NewUCQ(cq.NewCQ([]cq.Term{v("r")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r"))})),
		"buys": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("i")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), cq.Cst("r0")), cq.NewAtom("txn", v("u"), v("i"), v("x"))})),
		"active": cq.NewUCQ(
			cq.NewCQ([]cq.Term{v("u")}, []cq.Atom{cq.NewAtom("acct", v("u"), cq.Cst("r1"))}),
			cq.NewCQ([]cq.Term{v("u")}, []cq.Atom{cq.NewAtom("txn", v("u"), v("i"), cq.Cst("x0"))})),
		"items": cq.NewUCQ(
			cq.NewCQ([]cq.Term{v("i"), v("x")}, []cq.Atom{cq.NewAtom("txn", v("u"), v("i"), v("x"))}),
			cq.NewCQ([]cq.Term{v("a"), v("b")}, []cq.Atom{cq.NewAtom("misc", v("a"), v("b"))})),
		"regionItem": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("w")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r")), cq.NewAtom("txn", v("w"), v("r"), v("x"))})),
		"chain": cq.NewUCQ(cq.NewCQ([]cq.Term{v("a"), v("c")},
			[]cq.Atom{cq.NewAtom("misc", v("a"), v("b")), cq.NewAtom("misc", v("b"), v("c"))})),
		"any": cq.NewUCQ(cq.NewCQ(nil, []cq.Atom{cq.NewAtom("misc", v("a"), v("b"))})),
	}
	randRow := func(rng *rand.Rand, rel string) instance.Tuple {
		val := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
		switch rel {
		case "acct":
			return instance.Tuple{val("u", 12), val("r", 4)}
		case "txn":
			return instance.Tuple{val("u", 12), val("r", 5), val("x", 3)}
		default:
			return instance.Tuple{val("r", 5), val("r", 5)}
		}
	}
	rels := []string{"acct", "txn", "misc"}
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p)))
			db, refDB := instance.NewDatabase(s), instance.NewDatabase(s)
			live := map[string][]instance.Tuple{}
			for i := 0; i < 40; i++ {
				rel := rels[rng.Intn(len(rels))]
				row := randRow(rng, rel)
				db.MustInsert(rel, row...)
				refDB.MustInsert(rel, row...)
				live[rel] = append(live[rel], row)
			}
			ref, _, err := Open(refDB.Dict, refDB.IDTables(), s, a, views, Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			sh, _, err := Open(db.Dict, db.IDTables(), s, a, views, Config{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			local, global := sh.LocalViews()
			if p > 1 && (len(local) < 3 || len(global) < 5) {
				t.Fatalf("fixture must include shard-local and global views: local %v, global %v", local, global)
			}
			check := func(when string) {
				t.Helper()
				got := sh.last.Stats()
				if want := scanStats(t, sh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: published stats\n%+v\nscan\n%+v", when, *got, *want)
				}
				if want := ref.last.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: published stats\n%+v\nP = 1\n%+v", when, *got, *want)
				}
			}
			check("open")
			for b := 0; b < 80; b++ {
				var ins, del []instance.Op
				for n := 1 + rng.Intn(12); n > 0; n-- {
					rel := rels[rng.Intn(len(rels))]
					switch k := len(live[rel]); {
					case k > 0 && rng.Intn(2) == 0:
						i := rng.Intn(k)
						del = append(del, instance.Op{Rel: rel, Row: live[rel][i]})
						live[rel][i] = live[rel][k-1]
						live[rel] = live[rel][:k-1]
					case rng.Intn(8) == 0:
						del = append(del, instance.Op{Rel: rel, Row: randRow(rng, rel)})
					default:
						row := randRow(rng, rel)
						ins = append(ins, instance.Op{Rel: rel, Row: row})
						live[rel] = append(live[rel], row)
					}
				}
				if k := len(live["acct"]); k > 0 && rng.Intn(4) == 0 {
					row := live["acct"][rng.Intn(k)]
					del = append(del, instance.Op{Rel: "acct", Row: row})
					ins = append(ins, instance.Op{Rel: "acct", Row: row})
				}
				for _, e := range []*Sharded{sh, ref} {
					if _, err := applyOps(e, ins, del); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("batch %d", b))
			}
		})
	}
}
