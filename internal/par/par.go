// Package par provides a tiny bounded-parallelism harness for the
// evaluation engines: UCQ disjuncts, view materialization and the sharded
// engine's per-shard builds and batch applies run concurrently on a
// GOMAXPROCS-sized token pool.
//
// The pool is global and admission is try-acquire: when no token is free
// the work runs inline on the caller's goroutine. That keeps the total
// number of extra goroutines bounded and makes nesting (a parallel UCQ
// inside a parallel view materialization) deadlock-free by construction.
package par

import (
	"runtime"
	"sync"
)

// The caller's goroutine is itself a worker, so the pool holds
// GOMAXPROCS-1 tokens: on a single-CPU machine everything runs inline and
// parallel evaluation degrades gracefully to the sequential order. The
// pool size is captured at package init; if GOMAXPROCS is lowered later
// (e.g. go test -cpu sweeps), the admission gate below still prevents
// spawning, though a raised value will not grow the pool.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0)-1)

// ForEach runs f(0..n-1), in parallel when tokens are free, and returns
// the first error (by index order). Every call has completed when ForEach
// returns.
func ForEach(n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	spawn := runtime.GOMAXPROCS(0) > 1
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		if !spawn {
			errs[i] = f(i)
			continue
		}
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-tokens; wg.Done() }()
				errs[i] = f(i)
			}(i)
		default:
			errs[i] = f(i)
		}
	}
	errs[0] = f(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
