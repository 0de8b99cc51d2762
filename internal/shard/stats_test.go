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

// scanStats is the statistics a scan gives: every shard's stored rows and
// every engine's published view extents, counted column by column and
// merged as collectStats merges the engines' counters. It is the
// reference the published statistics must equal at every epoch.
func scanStats(s *Sharded) *plan.Stats {
	st := &plan.Stats{
		RelRows:      make(map[string]int),
		RelDistinct:  make(map[string]map[string]int),
		ViewRows:     make(map[string]int),
		ViewDistinct: make(map[string][]int),
	}
	for _, sh := range s.shards {
		for _, rel := range s.schema.Relations {
			rows := sh.eng.Rows(rel.Name)
			st.RelRows[rel.Name] += len(rows)
			byAttr := st.RelDistinct[rel.Name]
			if byAttr == nil {
				byAttr = make(map[string]int)
				st.RelDistinct[rel.Name] = byAttr
			}
			for i, c := range distinctCols(rows) {
				byAttr[rel.Attrs[i]] += c
			}
		}
	}
	addView := func(name string, rows [][]uint32) {
		st.ViewRows[name] += len(rows)
		d := distinctCols(rows)
		if len(d) > len(st.ViewDistinct[name]) {
			grown := make([]int, len(d))
			copy(grown, st.ViewDistinct[name])
			st.ViewDistinct[name] = grown
		}
		for i, n := range d {
			st.ViewDistinct[name][i] += n
		}
	}
	for name := range s.views {
		st.ViewRows[name] = 0
		if s.local[name] {
			for _, sh := range s.shards {
				addView(name, sh.eng.PublishExtentIDs(name).Rows())
			}
		} else {
			addView(name, s.g.PublishExtentIDs(name).Rows())
		}
	}
	return st
}

// distinctCols counts the distinct IDs in each column of rows (nil for
// no rows).
func distinctCols(rows [][]uint32) []int {
	if len(rows) == 0 {
		return nil
	}
	seen := make([]map[uint32]bool, len(rows[0]))
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
// batch — through engines at P = 1, 2 and 4, and after Open and every
// ApplyDelta compares the current epoch's statistics with a scan of the
// engines' rows and extents. The views cover a co-partitioned join, heads
// that drop the partition key (cross-shard duplicates), a union, a
// Boolean view and, at P > 1, views the global engine maintains.
func TestPublishedStatsMatchScan(t *testing.T) {
	s, a := fixtureSchema()
	v := cq.Var
	views := map[string]*cq.UCQ{
		"accts": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("r")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), v("r"))})),
		"buys": cq.NewUCQ(cq.NewCQ([]cq.Term{v("u"), v("i")},
			[]cq.Atom{cq.NewAtom("acct", v("u"), cq.Cst("r0")), cq.NewAtom("txn", v("u"), v("i"), v("x"))})),
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
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p)))
			db := instance.NewDatabase(s)
			live := map[string][]instance.Tuple{}
			for i := 0; i < 40; i++ {
				rel := rels[rng.Intn(len(rels))]
				row := randRow(rng, rel)
				db.MustInsert(rel, row...)
				live[rel] = append(live[rel], row)
			}
			sh, err := Open(db.Dict, db.IDTables(), s, a, views, Config{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			if _, global := sh.LocalViews(); p > 1 && len(global) == 0 {
				t.Fatal("fixture must include views the global engine maintains")
			}
			check := func(when string) {
				t.Helper()
				got, _ := sh.Current().Stats()
				if want := scanStats(sh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: published stats\n%+v\nscan\n%+v", when, *got, *want)
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
				if _, err := sh.ApplyDelta(ins, del); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("batch %d", b))
			}
		})
	}
}
