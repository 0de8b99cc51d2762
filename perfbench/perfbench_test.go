package main

import (
	"slices"
	"testing"
)

// testOps keeps test runs short; on write_churn it covers a periodic
// checkpoint (every 256 batches).
var testOps = map[string]int{"serve_fig1": 200, "serve_point": 2100, "write_churn": 300}

func testRun(t *testing.T, workload string, seed int64, trace bool, corrupt func(int, [][]string) [][]string) *result {
	t.Helper()
	res, _, err := run(config{
		workload: workload, seed: seed, seconds: 1, trace: trace, dir: t.TempDir(),
		setupReps: 1, maxOps: testOps[workload], corrupt: corrupt,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return res
}

// TestCorruptedAnswerCounted alters two answers the program returned: one
// loses a row (caught by the per-operation row-count check), one has a
// value changed (caught only by the full comparison of the sampled
// operations with EvalDirect). Both must be counted as failures.
func TestCorruptedAnswerCounted(t *testing.T) {
	for _, name := range []string{"serve_fig1", "serve_point", "write_churn"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			checked := 4
			for !sampled(checked, w.checkEvery()) {
				checked++
			}
			corrupted := 0
			res := testRun(t, name, 1, false, func(op int, rows [][]string) [][]string {
				if len(rows) == 0 {
					return rows
				}
				switch op {
				case 3:
					corrupted++
					return rows[1:]
				case checked:
					corrupted++
					bad := slices.Clone(rows)
					bad[0] = append([]string{"corrupted"}, bad[0][1:]...)
					return bad
				}
				return rows
			})
			if corrupted != 2 {
				t.Fatalf("corrupted %d answers, want 2 (an answer was empty; pick other ops)", corrupted)
			}
			if res.Failed != 2 || res.Correct {
				t.Fatalf("failed = %d, correct = %v; want 2 failures and correct = false", res.Failed, res.Correct)
			}
		})
	}
}

// TestSameSeedSameCounts runs every workload twice on one seed with a
// fixed operation count: the counts the benchmark reports must repeat
// exactly. A different seed must pass every answer check.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"serve_fig1", "serve_point", "write_churn"} {
		t.Run(name, func(t *testing.T) {
			a, b := testRun(t, name, 7, false, nil), testRun(t, name, 7, false, nil)
			if !a.Correct || !b.Correct {
				t.Fatalf("answer checks failed: %d and %d of %d", a.Failed, b.Failed, a.Attempted)
			}
			if fa, fb := a.Metrics["fetched_per_op"], b.Metrics["fetched_per_op"]; fa != fb {
				t.Errorf("fetched_per_op: %v then %v", fa.Value, fb.Value)
			}
			ta, tb := testRun(t, name, 7, true, nil), testRun(t, name, 7, true, nil)
			for _, m := range []string{"vbrp.candidates", "wal.checkpoints", "stats.refreshes"} {
				if ta.Metrics[m] != tb.Metrics[m] {
					t.Errorf("%s: %v then %v", m, ta.Metrics[m].Value, tb.Metrics[m].Value)
				}
				if ta.Metrics[m].Value == 0 {
					t.Errorf("%s is 0: the traced run did not exercise its layer", m)
				}
			}
			if c := testRun(t, name, 8, false, nil); !c.Correct {
				t.Fatalf("seed 8: %d of %d operations failed their answer check", c.Failed, c.Attempted)
			}
		})
	}
}
