// Package par provides the bounded worker pools used by the loading,
// indexing, rendering and metrics layers. All helpers are index-based:
// work item i is fn(i), items are claimed atomically so uneven item
// costs balance across workers, and every call returns only after all
// items completed.
//
// The package exists so that every parallel section in the code base
// shares one sizing policy: Workers() respects GOMAXPROCS, and Do
// degrades to a plain inline loop when parallelism would not help
// (single worker or a single item), keeping single-core performance
// identical to the sequential code.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the default worker count for parallel sections: the
// smaller of GOMAXPROCS and the physical CPUs available to the
// process. All sections are CPU-bound, so running more workers than
// cores never helps — and on a single-core machine with an inflated
// GOMAXPROCS it degrades badly (scheduler and GC lock contention), so
// the sequential fallbacks kick in there instead.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	return w
}

// Do runs fn(i) for every i in [0, n), using at most workers
// goroutines, and returns when all calls have finished. workers <= 1
// or n <= 1 runs inline on the calling goroutine. Items are claimed
// from a shared atomic counter, so long-running items do not stall the
// distribution of the remaining ones. If fn panics, the workers stop
// claiming items, Do waits for the calls in progress and then panics
// with the first panic's value on the calling goroutine, where it can
// be recovered, as an inline loop's panic could.
func Do(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked interface{}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Chunks splits n items into at most workers contiguous chunks of
// near-equal size and returns the chunk boundaries: chunk c covers
// [bounds[c], bounds[c+1]). It is used where per-item work is too
// small to claim individually and a deterministic partition is needed
// for order-stable merging.
func Chunks(workers, n int) []int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return []int{0}
	}
	bounds := make([]int, workers+1)
	for c := 0; c <= workers; c++ {
		bounds[c] = c * n / workers
	}
	return bounds
}
