package repro

import (
	"runtime"
	"testing"
)

// TestApplyDeltaAllocScaleFree is the standing check that the write path
// is scale-free: the bytes one churn batch allocates must not grow with
// the database. It applies the same kind of 256-op batches to handles at
// two sizes 8x apart and fails when the larger one allocates more than 2x
// per batch, on the mean or on the largest single batch. A per-batch
// O(|V|) step (copying a whole view extent, or scanning a join-index
// group that holds a fixed share of all rows) pushes the ratio toward
// the size ratio.
func TestApplyDeltaAllocScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two fixtures of up to 80k rows")
	}
	perBatch := func(users int) (mean, max float64) {
		h, ins, dels := openChurnHandle(t, users, 16)
		defer h.Close()
		for p := range ins { // warm up: first-touch growth of the engine's maps
			if _, err := h.ApplyDelta(ins[p], dels[p]); err != nil {
				t.Fatal(err)
			}
		}
		const cycles = 5 // 40k ops
		var m0, m1 runtime.MemStats
		for c := 0; c < cycles; c++ {
			for p := range ins {
				runtime.ReadMemStats(&m0)
				_, err := h.ApplyDelta(ins[p], dels[p])
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				b := float64(m1.TotalAlloc - m0.TotalAlloc)
				mean += b
				if b > max {
					max = b
				}
			}
		}
		return mean / float64(cycles*len(ins)), max
	}
	smallMean, smallMax := perBatch(4000)
	largeMean, largeMax := perBatch(32000)
	t.Logf("bytes per batch: mean %.0f at 4k users, %.0f at 32k users (%.2fx); largest batch %.0f, %.0f (%.2fx)",
		smallMean, largeMean, largeMean/smallMean, smallMax, largeMax, largeMax/smallMax)
	if r := largeMean / smallMean; r > 2 {
		t.Fatalf("per-batch allocation grew %.2fx for 8x the data (limit 2x): the write path has an O(|V|) step", r)
	}
	if r := largeMax / smallMax; r > 2 {
		t.Fatalf("the largest batch's allocation grew %.2fx for 8x the data (limit 2x): some batches take an O(|V|) step", r)
	}
}
