// Command quickstart walks through Example 1.1 of the paper end to end:
// the movie schema R0, access schema A0, Graph-Search query Q0 and view
// V1; it checks the rewriting Q_ξ of Example 2.3 with the effective
// syntax, regenerates the 11-node plan ξ0 of Figure 1, and runs it against
// a generated instance, comparing the fetched-tuple count with the 2·N0
// bound of Example 2.2. It exits non-zero when the plan's answers differ
// from the direct scan's or it fetches more tuples than the bound.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/workload"
)

func main() {
	const n0 = 50
	m := workload.NewMovies(n0)
	sys, err := repro.NewSystem(m.Schema, m.Access, m.Views(), 11)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Bounded Query Rewriting Using Views — quickstart (Example 1.1) ===")
	fmt.Println("\nDatabase schema R0:")
	fmt.Println(m.Schema)
	fmt.Println("\nAccess schema A0:")
	fmt.Println(m.Access)
	fmt.Println("\nQuery Q0:")
	fmt.Println(" ", m.Q0)
	fmt.Println("View V1:")
	fmt.Println(" ", m.V1)

	// The rewriting of Example 2.3:
	//   Q_ξ(mid) = ∃ym ( movie(mid,ym,"Universal","2014") ∧ V1(mid) ∧ rating(mid,"5") ).
	qxi := &repro.FOQuery{
		Name: "Qxi",
		Head: []string{"mid"},
		Body: &fo.Exists{Vars: []string{"ym"}, E: &fo.And{
			L: &fo.And{
				L: fo.NewAtom("movie", repro.Var("mid"), repro.Var("ym"), repro.Cst("Universal"), repro.Cst("2014")),
				R: fo.NewAtom("V1", repro.Var("mid")),
			},
			R: fo.NewAtom("rating", repro.Var("mid"), repro.Cst("5")),
		}},
	}
	res := sys.CheckTopped(qxi)
	if !res.Topped {
		log.Fatalf("Q_ξ should be topped by (R0, V1, A0, 11): %s", res.Reason)
	}
	fmt.Printf("\nQ_ξ is topped by (R0, V1, A0, M=11); synthesized %d-node plan (Figure 1):\n\n%s\n",
		res.Size, repro.RenderPlan(res.Plan))
	okConf, bound, _ := sys.Conforms(res.Plan)
	fmt.Printf("plan conforms to A0: %v; derived fetch bound: %d (= 2·N0, Example 2.2)\n", okConf, bound)

	// Serve growing instances: the plan's I/O stays ≤ 2·N0 while the
	// direct evaluation scans everything. Execute reports the tuples each
	// call fetched from D.
	for _, size := range []int{1000, 10000, 100000} {
		db := m.Generate(workload.MoviesParams{
			Persons: size, Movies: size, LikesPerPerson: 6, NASAShare: 10, Seed: 42,
		})
		h, err := sys.Open(db)
		if err != nil {
			log.Fatal(err)
		}
		rows, fetched, err := h.Execute(res.Plan)
		if err != nil {
			log.Fatal(err)
		}
		// Time a second, warm call: an epoch's first read builds the
		// index its join probes V1 through.
		t0 := time.Now()
		if _, _, err := h.Execute(res.Plan); err != nil {
			log.Fatal(err)
		}
		planTime := time.Since(t0)
		if err := h.Close(); err != nil {
			log.Fatal(err)
		}

		t0 = time.Now()
		direct, err := sys.EvalDirect(repro.NewUCQ(m.Q0), db)
		if err != nil {
			log.Fatal(err)
		}
		directTime := time.Since(t0)
		if !cq.RowsEqual(rows, direct) {
			log.Fatalf("plan and direct scan answers differ (%d vs %d rows)", len(rows), len(direct))
		}
		if int64(fetched) > bound {
			log.Fatalf("plan fetched %d tuples, above its bound %d", fetched, bound)
		}

		fmt.Printf("\n|D| = %8d tuples: Q0 answers = %3d (plan) / %3d (direct scan)\n",
			db.Size(), len(rows), len(direct))
		fmt.Printf("  plan fetched %4d tuples (bound %d) in %8s; direct scan took %8s (%.1fx)\n",
			fetched, bound, planTime, directTime, float64(directTime)/float64(planTime))
	}

	// Serving under churn: Open returns the unified Handle; every
	// ApplyDelta publishes a new epoch, and a Snapshot pins one — reads
	// through it stay on the pre-batch state without blocking the writer.
	db := m.Generate(workload.MoviesParams{
		Persons: 5000, Movies: 5000, LikesPerPerson: 6, NASAShare: 10, Seed: 42,
	})
	h, err := sys.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	snap := h.Snapshot()
	if _, err := h.ApplyDelta(
		[]repro.Op{{Rel: "rating", Row: repro.Tuple{"m1", "5"}}},
		[]repro.Op{{Rel: "rating", Row: repro.Tuple{"m0", "5"}}},
	); err != nil {
		log.Fatal(err)
	}
	pre, preFetched, err := snap.Execute(res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	post, _, err := h.Execute(res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive serving: snapshot pinned at epoch %d answers %d rows (fetched %d ≤ %d);\n",
		snap.Epoch(), len(pre), preFetched, 2*n0)
	fmt.Printf("current epoch answers %d rows after the delta — the pinned reader never blocked.\n", len(post))
}
