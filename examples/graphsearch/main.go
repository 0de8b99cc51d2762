// Command graphsearch reproduces the introduction's Facebook Graph-Search
// example: "find all restaurants in a city which I have not been to, but
// in which my friends dined on a date". Under the friend-cap and
// one-dinner-per-day access constraints the query — though it contains
// negation — has a bounded rewriting: the number of tuples read from D is
// a constant (the paper computes 470,000 under production caps) however
// large the social graph grows. It exits non-zero when the plan's answers
// differ from the full scan's or it fetches more tuples than its bound.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/plan"
	"repro/internal/topped"
	"repro/internal/workload"
)

func main() {
	// Scaled caps: 60 friends (Facebook: 5000), 60 dinners of history.
	so := workload.NewSocial(60, 25)
	checker := topped.NewChecker(so.Schema, so.Access, nil)
	q := so.GraphSearchQuery("u000007", "2015-05-03", "city3")

	fmt.Println("=== Graph Search under access constraints (introduction example) ===")
	fmt.Println("\nAccess schema:")
	fmt.Println(so.Access)
	fmt.Println("\nQuery:")
	fmt.Println(" ", q)

	res := checker.Check(q, 64)
	if !res.Topped {
		log.Fatalf("the query must be topped: %s", res.Reason)
	}
	fmt.Printf("\nTopped: %d-node FO plan (uses set difference for the negation):\n\n%s\n",
		res.Size, plan.Render(res.Plan))
	rep := plan.Conforms(res.Plan, so.Schema, so.Access, nil)
	fmt.Printf("conforms: %v, structural fetch bound: %d tuples\n", rep.Conforms, rep.FetchBound)

	sys, err := repro.NewSystem(so.Schema, so.Access, nil, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n|D| sweep — fetched tuples stay constant while the graph grows:")
	fmt.Printf("  %10s %10s %12s %12s %9s\n", "|D|", "fetched", "plan time", "scan time", "speedup")
	for _, persons := range []int{5000, 50000, 200000} {
		db := so.Generate(workload.SocialParams{Persons: persons, Restaurants: 500, Dates: 28, Seed: 3})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		rows, fetched, err := h.Execute(res.Plan)
		if err != nil {
			log.Fatal(err)
		}
		planTime := time.Since(t0)
		if err := h.Close(); err != nil {
			log.Fatal(err)
		}

		t0 = time.Now()
		direct, err := sys.EvalDirectFO(q, db)
		if err != nil {
			log.Fatal(err)
		}
		scanTime := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatalf("plan and scan answers differ (%d vs %d rows)", len(rows), len(direct))
		}
		if int64(fetched) > rep.FetchBound {
			log.Fatalf("fetched %d tuples, above the plan's bound %d", fetched, rep.FetchBound)
		}
		fmt.Printf("  %10d %10d %12s %12s %8.1fx\n",
			db.Size(), fetched, planTime.Round(time.Microsecond),
			scanTime.Round(time.Microsecond), float64(scanTime)/float64(planTime))
	}
}
