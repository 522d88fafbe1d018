package grb

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The engine parallelizes its kernels over contiguous chunks of rows (or
// vector entries) with plain goroutines, the Go analogue of
// SuiteSparse:GraphBLAS's OpenMP parallelism. The degree of parallelism is a
// process-wide setting so that a whole benchmark phase (e.g. "GraphBLAS
// Batch, 8 threads") can flip it once, exactly like GxB_set(GxB_NTHREADS).

var numThreads atomic.Int32

func init() {
	numThreads.Store(int32(runtime.GOMAXPROCS(0)))
}

// SetThreads sets the number of worker goroutines used by parallel kernels.
// n < 1 resets to GOMAXPROCS. It returns the previous setting.
func SetThreads(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(numThreads.Swap(int32(n)))
}

// Threads reports the current parallelism degree.
func Threads() int { return int(numThreads.Load()) }

// minParallelWork is the smallest amount of per-chunk work worth a
// goroutine; below it kernels run sequentially to avoid scheduling overhead.
const minParallelWork = 4096

// parallelRanges invokes body(lo, hi) over a static partition of [0, n)
// into at most Threads() contiguous ranges, one goroutine each; it is the
// one fan-out of the row kernels. body must be safe to call concurrently
// on disjoint ranges (MxM, which stitches its rows back in order, writes
// them by row index). When the work is small or only one thread is
// configured it calls body(0, n) inline, allocating nothing.
func parallelRanges(n int, body func(lo, hi int)) {
	nt := Threads()
	if n <= 0 {
		return
	}
	if nt <= 1 || n < minParallelWork {
		body(0, n)
		return
	}
	if nt > n {
		nt = n
	}
	chunk := (n + nt - 1) / nt
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelItems invokes body(w, i) for every i in [0, n) on up to workers
// goroutines with dynamic (work-stealing counter) scheduling; w in
// [0, workers) names the goroutine, so body can use per-worker scratch.
// Unlike parallelRanges it takes its worker count from the caller and
// parallelizes even small n, because callers use it for coarse-grained
// tasks of highly uneven cost — e.g. the per-comment connected-component
// computations of Q2, which the paper parallelizes with OpenMP at comment
// granularity.
func ParallelItems(n, workers int, body func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
}
