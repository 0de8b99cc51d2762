// Command cdr reproduces the paper's industrial evaluation scenario
// (Section 5.1): a CDR (call detail record) workload of 10 queries over a
// telco schema with access constraints (customer key, per-day call
// fan-out, per-day tower bound). For each query it checks topped-ness
// (the PTIME effective syntax), synthesizes the bounded plan, and compares
// plan execution against full-scan evaluation across growing instances —
// regenerating the shape of the paper's ">90% of queries improved"
// finding. It exits non-zero when a plan's answers differ from the full
// scan's or it fetches more tuples than its conformance bound.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/topped"
	"repro/internal/workload"
)

func main() {
	c := workload.NewCDR(20, 5, 100)
	checker := topped.NewChecker(c.Schema, c.Access, nil)
	queries := c.Queries("p0000042", "d07")

	fmt.Println("=== CDR workload: bounded rewriting in practice (Section 5.1) ===")
	fmt.Println("\nAccess schema:")
	fmt.Println(c.Access)

	fmt.Println("\n--- Topped-ness (PTIME effective syntax, Theorem 5.1) ---")
	toppedCount := 0
	plans := map[string]repro.Plan{}
	bounds := map[string]int64{} // query -> the plan's derived fetch bound
	for _, q := range queries {
		res := checker.Check(q.FO, 128)
		status := "NOT topped"
		if res.Topped {
			status = fmt.Sprintf("topped, %2d-node plan", res.Size)
			toppedCount++
			plans[q.Name] = res.Plan
			bounds[q.Name] = plan.Conforms(res.Plan, c.Schema, c.Access, nil).FetchBound
		}
		fmt.Printf("  %-4s %-42s %s\n", q.Name, q.Descr, status)
	}
	fmt.Printf("=> %d/%d queries have a bounded rewriting (paper: >90%% of the CDR workload)\n",
		toppedCount, len(queries))

	fmt.Println("\n--- Speedup of bounded plans vs full scans ---")
	sys, err := repro.NewSystem(c.Schema, c.Access, nil, 128)
	if err != nil {
		log.Fatal(err)
	}
	for _, customers := range []int{2000, 20000, 100000} {
		db := c.Generate(workload.CDRParams{Customers: customers, Days: 30, Seed: 1})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		src := &eval.Source{DB: db}
		fmt.Printf("\n|D| = %d tuples (%d customers):\n", db.Size(), customers)
		fmt.Printf("  %-4s %12s %12s %9s %8s\n", "qry", "plan", "full scan", "speedup", "fetched")
		for _, q := range queries {
			p, ok := plans[q.Name]
			if !ok {
				continue
			}
			t0 := time.Now()
			rows, fetched, err := h.Execute(p)
			if err != nil {
				log.Fatal(err)
			}
			planTime := time.Since(t0)
			t0 = time.Now()
			var direct [][]string
			if q.CQ != nil {
				direct, err = eval.CQOnDB(q.CQ, src)
			} else {
				direct, err = eval.FOOnDB(q.FO, src)
			}
			if err != nil {
				log.Fatal(err)
			}
			directTime := time.Since(t0)
			if !cq.RowsEqual(rows, direct) {
				log.Fatalf("%s: plan and scan answers differ (%d vs %d rows)", q.Name, len(rows), len(direct))
			}
			if int64(fetched) > bounds[q.Name] {
				log.Fatalf("%s: fetched %d tuples, above the plan's bound %d", q.Name, fetched, bounds[q.Name])
			}
			fmt.Printf("  %-4s %12s %12s %8.1fx %8d\n",
				q.Name, planTime.Round(time.Microsecond), directTime.Round(time.Microsecond),
				float64(directTime)/float64(max64(1, int64(planTime))), fetched)
		}
		if err := h.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
