package main

import (
	"math"
	"slices"
	"time"
)

// samples stores per-operation latencies in nanoseconds. It grows in
// fixed chunks, so recording never copies what it already holds and
// allocates once per chunk, not per operation.
type samples struct {
	chunks [][]uint32
}

const sampleChunk = 1 << 16

func (s *samples) add(d time.Duration) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]uint32, 0, sampleChunk))
		n++
	}
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.chunks[n-1] = append(s.chunks[n-1], uint32(ns))
}

func (s *samples) len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// sorted returns every sample in ascending order.
func (s *samples) sorted() []uint32 {
	all := make([]uint32, 0, s.len())
	for _, c := range s.chunks {
		all = append(all, c...)
	}
	slices.Sort(all)
	return all
}

// quantileUS is the nearest-rank q-quantile of ascending values, in
// microseconds.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// beyond counts the samples ranked above the q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of xs (mean of the middle two for even
// lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// hostRefUS times a fixed pure-CPU loop (integer hashing, no memory
// traffic beyond registers) and returns the median of five repetitions in
// microseconds. Read at the start and end of every run, it shows how fast
// the host was at that moment, so drift across a run set is visible. It is
// a diagnostic and never gated.
func hostRefUS() float64 {
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xff51afd7ed558ccd
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / 1e3
		hostSink = x
	}
	return median(reps)
}

// hostSink keeps the reference loop's result alive so the compiler cannot
// drop the loop.
var hostSink uint64
