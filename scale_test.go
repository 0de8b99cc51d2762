package repro

import (
	"runtime"
	"testing"
)

// TestApplyDeltaAllocScaleFree is the standing check that the write path
// is scale-free: the bytes one churn batch allocates must not grow with
// the database. It applies the same kind of 256-op batches to handles at
// two sizes 8x apart and fails when the larger one allocates more than 2x
// per batch. A per-batch O(|V|) step (copying a whole view extent, or
// scanning a join-index group that holds a fixed share of all rows)
// pushes the ratio toward the size ratio.
func TestApplyDeltaAllocScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two fixtures of up to 80k rows")
	}
	perBatch := func(users int) float64 {
		h, ins, dels := openChurnHandle(t, users, 16)
		defer h.Close()
		cycle := func() {
			for p := range ins {
				if _, err := h.ApplyDelta(ins[p], dels[p]); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // warm up: first-touch growth of the engine's maps
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cycle()
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(ins))
	}
	small, large := perBatch(4000), perBatch(32000)
	ratio := large / small
	t.Logf("bytes per batch: %.0f at 4k users, %.0f at 32k users (%.2fx)", small, large, ratio)
	if ratio > 2 {
		t.Fatalf("per-batch allocation grew %.2fx for 8x the data (limit 2x): the write path has an O(|V|) step", ratio)
	}
}
