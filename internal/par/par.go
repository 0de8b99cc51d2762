// Package par provides a tiny bounded-parallelism harness for the
// evaluation engines: UCQ disjuncts, view materialization and independent
// plan subtrees run concurrently on a GOMAXPROCS-sized token pool.
//
// The pool is global and admission is try-acquire: when no token is free
// the work runs inline on the caller's goroutine. That keeps the total
// number of extra goroutines bounded and makes nesting (a parallel plan
// subtree inside a parallel view materialization) deadlock-free by
// construction.
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

// Do runs the functions, in parallel when tokens are free, and returns the
// first error (by argument order). Every function has completed when Do
// returns.
func Do(fns ...func() error) error {
	if len(fns) == 0 {
		return nil
	}
	spawn := runtime.GOMAXPROCS(0) > 1
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns[1:] {
		if !spawn {
			errs[i+1] = fn()
			continue
		}
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func(i int, fn func() error) {
				defer func() { <-tokens; wg.Done() }()
				errs[i] = fn()
			}(i+1, fn)
		default:
			errs[i+1] = fn()
		}
	}
	errs[0] = fns[0]()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs f(0..n-1), in parallel when tokens are free, and returns
// the first error (by index order).
func ForEach(n int, f func(i int) error) error {
	fns := make([]func() error, n)
	for i := range fns {
		i := i
		fns[i] = func() error { return f(i) }
	}
	return Do(fns...)
}
