package grb

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func randomMatrix(rng *rand.Rand, nr, nc, nnz int) *Matrix[int] {
	rows := make([]Index, nnz)
	cols := make([]Index, nnz)
	vals := make([]int, nnz)
	for k := 0; k < nnz; k++ {
		rows[k] = rng.Intn(nr)
		cols[k] = rng.Intn(nc)
		vals[k] = rng.Intn(100) + 1
	}
	a, err := MatrixFromTuples(nr, nc, rows, cols, vals, Plus[int])
	if err != nil {
		panic(err)
	}
	return a
}

func randomVector(rng *rand.Rand, n, nnz int) *Vector[int] {
	v := NewVector[int](n)
	for k := 0; k < nnz; k++ {
		Must0(v.SetElement(rng.Intn(n), rng.Intn(100)+1))
	}
	return v
}

// Kernels must produce identical results at every thread count. The matrices
// are large enough to cross the minParallelWork threshold so the parallel
// paths actually execute.
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 6000
	a := randomMatrix(rng, n, n, 8*n)
	b := randomMatrix(rng, n, n, 8*n)
	u := randomVector(rng, n, n/2)

	defer SetThreads(SetThreads(1))
	mxv1 := Must(MxV(plusTimes[int](), a, u))
	mxm1 := Must(MxM(plusTimes[int](), a, b))
	red1 := Must(ReduceRows(PlusMonoid[int](), Ident[int], a))

	for _, nt := range []int{2, 4, 8} {
		SetThreads(nt)
		if got := Must(MxV(plusTimes[int](), a, u)); !reflect.DeepEqual(vecToMap(mxv1), vecToMap(got)) {
			t.Fatalf("MxV differs at %d threads", nt)
		}
		if got := Must(MxM(plusTimes[int](), a, b)); !reflect.DeepEqual(matToMap(mxm1), matToMap(got)) {
			t.Fatalf("MxM differs at %d threads", nt)
		}
		if got := Must(ReduceRows(PlusMonoid[int](), Ident[int], a)); !reflect.DeepEqual(vecToMap(red1), vecToMap(got)) {
			t.Fatalf("ReduceRows differs at %d threads", nt)
		}
	}
}

func TestSetThreads(t *testing.T) {
	orig := Threads()
	defer SetThreads(orig)
	prev := SetThreads(3)
	if prev != orig {
		t.Fatalf("SetThreads returned %d, want previous %d", prev, orig)
	}
	if Threads() != 3 {
		t.Fatalf("Threads = %d, want 3", Threads())
	}
	SetThreads(0) // resets to GOMAXPROCS
	if Threads() < 1 {
		t.Fatalf("Threads = %d after reset", Threads())
	}
}

// TestParallelRangesCoversAll pins the one static fan-out: every index of
// [0, n) is covered exactly once, by at most Threads() non-empty ranges;
// on one thread, or below minParallelWork, body runs once, inline, and the
// call allocates nothing.
func TestParallelRangesCoversAll(t *testing.T) {
	defer SetThreads(SetThreads(1))
	for _, nt := range []int{1, 5, 7} {
		SetThreads(nt)
		for _, n := range []int{0, 1, 5, minParallelWork - 1, minParallelWork, 4*minParallelWork + 3} {
			covered := make([]int32, n)
			var calls atomic.Int32
			parallelRanges(n, func(lo, hi int) {
				calls.Add(1)
				if lo >= hi {
					t.Errorf("threads=%d n=%d: empty range [%d,%d)", nt, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("threads=%d n=%d: index %d covered %d times", nt, n, i, c)
				}
			}
			if c := int(calls.Load()); c > nt || n > 0 && (nt == 1 || n < minParallelWork) && c != 1 {
				t.Fatalf("threads=%d n=%d: %d ranges", nt, n, c)
			}
		}
	}
	SetThreads(1)
	body := func(lo, hi int) {}
	if allocs := testing.AllocsPerRun(100, func() { parallelRanges(4*minParallelWork, body) }); allocs != 0 {
		t.Fatalf("one-thread parallelRanges allocates %.0f times per call, want 0", allocs)
	}
}

// TestParallelChunksPartition pins the shape of the static partition: on
// five threads the ranges handed to body, sorted, are contiguous, non-empty
// and span exactly [0, n).
func TestParallelChunksPartition(t *testing.T) {
	defer SetThreads(SetThreads(5))
	for _, n := range []int{minParallelWork, minParallelWork*4 + 3} {
		var mu sync.Mutex
		var ranges [][2]int
		parallelRanges(n, func(lo, hi int) {
			mu.Lock()
			ranges = append(ranges, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
		if len(ranges) == 0 || len(ranges) > 5 || ranges[0][0] != 0 || ranges[len(ranges)-1][1] != n {
			t.Fatalf("n=%d: ranges %v do not span [0,%d) in at most 5 parts", n, ranges, n)
		}
		for i, r := range ranges {
			if r[0] >= r[1] || i > 0 && r[0] != ranges[i-1][1] {
				t.Fatalf("n=%d: ranges %v not contiguous and non-empty", n, ranges)
			}
		}
	}
}
