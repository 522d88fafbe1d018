package grb

import (
	"math/rand"
	"reflect"
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

func TestParallelRangesCoversAll(t *testing.T) {
	defer SetThreads(SetThreads(7))
	for _, n := range []int{0, 1, 5, minParallelWork - 1, minParallelWork, 3*minParallelWork + 17} {
		covered := make([]int32, n)
		parallelRanges(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestParallelChunksPartition(t *testing.T) {
	defer SetThreads(SetThreads(5))
	for _, n := range []int{minParallelWork, minParallelWork*4 + 3} {
		bounds := parallelChunks(n)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("bounds %v do not span [0,%d]", bounds, n)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds %v not strictly increasing", bounds)
			}
		}
	}
}
