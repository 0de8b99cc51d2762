package eval

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/topped"
	"repro/internal/workload"
)

// naiveCQ is an independent reference evaluator: plain string comparisons,
// nested-loop backtracking, no interning, no indexes. The interned
// pipeline must return row-for-row identical results (after sorting).
func naiveCQ(t *testing.T, q *cq.CQ, src *Source) [][]string {
	t.Helper()
	n, err := q.Normalize()
	if err != nil {
		return nil
	}
	var out [][]string
	seen := map[string]bool{}
	bind := map[string]string{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(n.Atoms) {
			row := make([]string, len(n.Head))
			for j, tm := range n.Head {
				if tm.Const {
					row[j] = tm.Val
				} else {
					v, ok := bind[tm.Val]
					if !ok {
						t.Fatalf("unsafe query: unbound head variable %s", tm.Val)
					}
					row[j] = v
				}
			}
			k := strings.Join(row, "\x1f")
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
			return
		}
		a := n.Atoms[i]
		rows, ok := src.Rows(a.Rel)
		if !ok {
			t.Fatalf("unknown relation %s", a.Rel)
		}
	rowLoop:
		for _, r := range rows {
			if len(r) != len(a.Args) {
				continue
			}
			var newly []string
			for j, tm := range a.Args {
				if tm.Const {
					if r[j] != tm.Val {
						for _, v := range newly {
							delete(bind, v)
						}
						continue rowLoop
					}
					continue
				}
				if cur, bound := bind[tm.Val]; bound {
					if cur != r[j] {
						for _, v := range newly {
							delete(bind, v)
						}
						continue rowLoop
					}
					continue
				}
				bind[tm.Val] = r[j]
				newly = append(newly, tm.Val)
			}
			rec(i + 1)
			for _, v := range newly {
				delete(bind, v)
			}
		}
	}
	rec(0)
	return out
}

func naiveUCQ(t *testing.T, u *cq.UCQ, src *Source) [][]string {
	t.Helper()
	seen := map[string]bool{}
	var out [][]string
	for _, d := range u.Disjuncts {
		for _, r := range naiveCQ(t, d, src) {
			k := strings.Join(r, "\x1f")
			if !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	return out
}

func assertSameRows(t *testing.T, name string, got, want [][]string) {
	t.Helper()
	slices.SortFunc(got, slices.Compare)
	slices.SortFunc(want, slices.Compare)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: interned evaluator disagrees with reference\ngot  %d rows: %v\nwant %d rows: %v",
			name, len(got), got, len(want), want)
	}
}

// TestInternedMatchesReferenceMovies checks CQOnDB, UCQOnDB (views) and
// plan execution against the naive reference on the Movies fixture.
func TestInternedMatchesReferenceMovies(t *testing.T) {
	m := workload.NewMovies(50)
	db := m.Generate(workload.MoviesParams{Persons: 300, Movies: 300, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
	src := &Source{DB: db}

	got, err := CQOnDB(m.Q0, src)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "Q0", got, naiveCQ(t, m.Q0, src))

	for name, def := range m.Views() {
		got, err := UCQOnDB(def, src)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "view "+name, got, naiveUCQ(t, def, src))
	}

	// The Figure 1 plan must agree with the direct evaluation.
	views, err := Materialize(m.Views(), db)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), m.Access)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveCQ(t, m.Q0, src)
	planRows, _, err := plan.Run(m.Fig1Plan(), ix, plan.PrepareViews(ix.Dict(), views))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "fig1 plan", planRows, want)
}

// TestInternedMatchesReferenceCDR checks every CQ of the CDR workload, and
// every topped plan against the direct evaluator.
func TestInternedMatchesReferenceCDR(t *testing.T) {
	c := workload.NewCDR(20, 5, 100)
	db := c.Generate(workload.CDRParams{Customers: 500, Days: 30, Seed: 1})
	src := &Source{DB: db}
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), c.Access)
	if err != nil {
		t.Fatal(err)
	}
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	for _, q := range c.Queries("p0000042", "d07") {
		if q.CQ != nil {
			got, err := CQOnDB(q.CQ, src)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, q.Name, got, naiveCQ(t, q.CQ, src))
		}
		if res := checker.Check(q.FO, 128); res.Topped {
			planRows, _, err := plan.Run(res.Plan, ix, nil)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := FOOnDB(q.FO, src)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, q.Name+" plan", planRows, direct)
		}
	}
}

// TestInternedMatchesReferenceGraphSearch checks the FO evaluator against
// the bounded plan on the social-network fixture (negation + views-free
// FO path).
func TestInternedMatchesReferenceGraphSearch(t *testing.T) {
	so := workload.NewSocial(60, 25)
	q := so.GraphSearchQuery("u000007", "2015-05-03", "city3")
	checker := topped.NewChecker(so.Schema, so.Access, nil)
	res := checker.Check(q, 64)
	if !res.Topped {
		t.Fatal(res.Reason)
	}
	db := so.Generate(workload.SocialParams{Persons: 2000, Restaurants: 100, Dates: 28, Seed: 3})
	ix, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), so.Access)
	if err != nil {
		t.Fatal(err)
	}
	planRows, _, err := plan.Run(res.Plan, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := FOOnDB(q, &Source{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "graph search", planRows, direct)
}
