package grb

import (
	"errors"
	"testing"
)

// times and plusTimes are the arithmetic product and (+, ×) semiring the
// kernel tests compute over; no engine uses them.
func times[T Number](x, y T) T { return x * y }

func plusTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: times[T]}
}

// Ident is the identity cast for same-typed reductions.
func Ident[T any](x T) T { return x }

// ExtractTuples returns copies of all (row, col, value) triples in row-major
// order (GrB_extractTuples), the form the tests compare matrices in.
// Pending tuples are assembled first.
func (a *Matrix[T]) ExtractTuples() (rows, cols []Index, vals []T) {
	a.Wait()
	rows = make([]Index, len(a.colInd))
	cols = make([]Index, len(a.colInd))
	vals = make([]T, len(a.val))
	for i := 0; i < a.nrows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			rows[p], cols[p] = i, Index(a.colInd[p])
		}
	}
	copy(vals, a.val)
	return rows, cols, vals
}

// transposeOf builds Aᵀ from A's tuples: the oracle VxM is checked
// against through MxV.
func transposeOf[T any](a *Matrix[T]) *Matrix[T] {
	rows, cols, vals := a.ExtractTuples()
	return Must(MatrixFromTuples(a.NCols(), a.NRows(), cols, rows, vals, nil))
}

// The 3×4 example used across kernel tests:
//
//	A = ⎡ 1 .  2 . ⎤
//	    ⎢ .  3 . . ⎥
//	    ⎣ 4 . . 5  ⎦
func kernelFixture(t *testing.T) *Matrix[int] {
	t.Helper()
	return mustMatrix(t, 3, 4,
		[]Index{0, 0, 1, 2, 2},
		[]Index{0, 2, 1, 0, 3},
		[]int{1, 2, 3, 4, 5})
}

func TestMxV(t *testing.T) {
	a := kernelFixture(t)
	u, _ := VectorFromTuples(4, []Index{0, 1, 2, 3}, []int{1, 10, 100, 1000}, nil)
	w, err := MxV(plusTimes[int](), a, u)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1*1 + 2*100, 3 * 10, 4*1 + 5*1000}
	for i, x := range want {
		got, ok, _ := w.GetElement(i)
		if !ok || got != x {
			t.Fatalf("w[%d] = (%d,%v), want %d", i, got, ok, x)
		}
	}
}

func TestMxVSparseVectorSkipsMissing(t *testing.T) {
	a := kernelFixture(t)
	u, _ := VectorFromTuples(4, []Index{1}, []int{10}, nil)
	w, err := MxV(plusTimes[int](), a, u)
	if err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 1 {
		t.Fatalf("NVals = %d, want 1 (only row 1 intersects)", w.NVals())
	}
	if x, _, _ := w.GetElement(1); x != 30 {
		t.Fatalf("w[1] = %d, want 30", x)
	}
}

func TestMxVDimensionError(t *testing.T) {
	a := kernelFixture(t)
	u := NewVector[int](3)
	if _, err := MxV(plusTimes[int](), a, u); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
}

func TestVxM(t *testing.T) {
	a := kernelFixture(t)
	u, _ := VectorFromTuples(3, []Index{0, 2}, []int{1, 10}, nil)
	w, err := VxM(plusTimes[int](), u, a)
	if err != nil {
		t.Fatal(err)
	}
	// wᵀ = uᵀA: col0 = 1*1 + 10*4 = 41, col2 = 1*2 = 2, col3 = 10*5 = 50.
	wantInd := []Index{0, 2, 3}
	wantVal := []int{41, 2, 50}
	ind, val := w.ExtractTuples()
	if len(ind) != len(wantInd) {
		t.Fatalf("tuples %v %v", ind, val)
	}
	for k := range wantInd {
		if ind[k] != wantInd[k] || val[k] != wantVal[k] {
			t.Fatalf("tuple %d = (%d,%d), want (%d,%d)", k, ind[k], val[k], wantInd[k], wantVal[k])
		}
	}
}

func TestVxMSeesPendingTuplesWithoutAssembly(t *testing.T) {
	a := kernelFixture(t)
	Must0(a.SetElement(1, 3, 7)) // pending
	u, _ := VectorFromTuples(3, []Index{1}, []int{2}, nil)
	w, err := VxM(plusTimes[int](), u, a)
	if err != nil {
		t.Fatal(err)
	}
	if x, _, _ := w.GetElement(3); x != 14 {
		t.Fatalf("w[3] = %d, want 14 (pending entry must participate)", x)
	}
	if a.NPending() == 0 {
		t.Fatal("VxM over one row must not assemble the whole matrix")
	}
}

func TestVxMAgainstMxVTranspose(t *testing.T) {
	a := kernelFixture(t)
	u, _ := VectorFromTuples(3, []Index{0, 1, 2}, []int{3, 5, 7}, nil)
	viaVxM := Must(VxM(plusTimes[int](), u, a))
	viaMxV := Must(MxV(plusTimes[int](), transposeOf(a), u))
	assertVectorsEqual(t, viaVxM, viaMxV)
}

func TestMxM(t *testing.T) {
	a := mustMatrix(t, 2, 3, []Index{0, 0, 1}, []Index{0, 1, 2}, []int{1, 2, 3})
	b := mustMatrix(t, 3, 2, []Index{0, 1, 2}, []Index{1, 0, 1}, []int{4, 5, 6})
	c, err := MxM(plusTimes[int](), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// c = [ [2*5=10 @ (0,0), 1*4=4 @ (0,1)], [3*6=18 @ (1,1)] ]
	checks := []struct {
		i, j Index
		v    int
	}{{0, 0, 10}, {0, 1, 4}, {1, 1, 18}}
	if c.NVals() != len(checks) {
		t.Fatalf("NVals = %d, want %d", c.NVals(), len(checks))
	}
	for _, ck := range checks {
		if x, ok, _ := c.GetElement(ck.i, ck.j); !ok || x != ck.v {
			t.Fatalf("c(%d,%d) = (%d,%v), want %d", ck.i, ck.j, x, ok, ck.v)
		}
	}
}

func TestMxMIdentity(t *testing.T) {
	a := kernelFixture(t)
	id := NewMatrix[int](4, 4)
	for i := 0; i < 4; i++ {
		Must0(id.SetElement(i, i, 1))
	}
	c := Must(MxM(plusTimes[int](), a, id))
	assertMatricesEqual(t, a, c)
}

func TestMxMDimensionError(t *testing.T) {
	a := NewMatrix[int](2, 3)
	b := NewMatrix[int](2, 3)
	if _, err := MxM(plusTimes[int](), a, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestMxMBooleanSemiring(t *testing.T) {
	// Path existence: edges 0→1→2 give a 2-step path 0→2.
	a, _ := MatrixFromTuples(3, 3, []Index{0, 1}, []Index{1, 2}, []bool{true, true}, nil)
	c := Must(MxM(OrAnd(), a, a))
	if x, ok, _ := c.GetElement(0, 2); !ok || !x {
		t.Fatal("missing 2-step reachability 0→2")
	}
	if c.NVals() != 1 {
		t.Fatalf("NVals = %d, want 1", c.NVals())
	}
}

func TestEWiseAddV(t *testing.T) {
	u, _ := VectorFromTuples(5, []Index{0, 2}, []int{1, 2}, nil)
	v, _ := VectorFromTuples(5, []Index{2, 4}, []int{10, 20}, nil)
	w := Must(EWiseAddV(Plus[int], u, v))
	wantInd := []Index{0, 2, 4}
	wantVal := []int{1, 12, 20}
	ind, val := w.ExtractTuples()
	for k := range wantInd {
		if ind[k] != wantInd[k] || val[k] != wantVal[k] {
			t.Fatalf("tuple %d = (%d,%d), want (%d,%d)", k, ind[k], val[k], wantInd[k], wantVal[k])
		}
	}
}

func TestEWiseDimensionErrors(t *testing.T) {
	u := NewVector[int](3)
	v := NewVector[int](4)
	if _, err := EWiseAddV(Plus[int], u, v); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("addV err = %v", err)
	}
}

func TestReduceRows(t *testing.T) {
	a := kernelFixture(t)
	w := Must(ReduceRows(PlusMonoid[int](), Ident[int], a))
	want := []int{3, 3, 9}
	for i, x := range want {
		if got, ok, _ := w.GetElement(i); !ok || got != x {
			t.Fatalf("row %d sum = %d, want %d", i, got, x)
		}
	}
}

func TestReduceRowsCountsBoolMatrix(t *testing.T) {
	// The Q1 idiom: per-post comment counts from a boolean RootPost matrix.
	a, _ := MatrixFromTuples(2, 3,
		[]Index{0, 0, 1}, []Index{0, 2, 1}, []bool{true, true, true}, nil)
	w := Must(ReduceRows(PlusMonoid[int64](), One[bool, int64], a))
	if x, _, _ := w.GetElement(0); x != 2 {
		t.Fatalf("count row 0 = %d, want 2", x)
	}
	if x, _, _ := w.GetElement(1); x != 1 {
		t.Fatalf("count row 1 = %d, want 1", x)
	}
}

func TestReduceRowsSkipsEmptyRows(t *testing.T) {
	a := mustMatrix(t, 3, 3, []Index{0}, []Index{0}, []int{5})
	w := Must(ReduceRows(PlusMonoid[int](), Ident[int], a))
	if w.NVals() != 1 {
		t.Fatalf("NVals = %d, want 1 (empty rows produce no entry)", w.NVals())
	}
}

func TestReduceCols(t *testing.T) {
	a := kernelFixture(t)
	w := Must(ReduceCols(PlusMonoid[int](), Ident[int], a))
	want := map[Index]int{0: 5, 1: 3, 2: 2, 3: 5}
	if w.NVals() != len(want) {
		t.Fatalf("NVals = %d, want %d", w.NVals(), len(want))
	}
	for j, x := range want {
		if got, _, _ := w.GetElement(j); got != x {
			t.Fatalf("col %d sum = %d, want %d", j, got, x)
		}
	}
}

func TestApplyV(t *testing.T) {
	u, _ := VectorFromTuples(4, []Index{1, 3}, []int{4, 6}, nil)
	w := ApplyV(func(x int) int { return 10 * x }, u)
	if x, _, _ := w.GetElement(1); x != 40 {
		t.Fatalf("w[1] = %d, want 40", x)
	}
	if x, _, _ := w.GetElement(3); x != 60 {
		t.Fatalf("w[3] = %d, want 60", x)
	}
}

func TestApplyVChangesType(t *testing.T) {
	u, _ := VectorFromTuples(3, []Index{0}, []int{7}, nil)
	w := ApplyV(func(x int) bool { return x > 5 }, u)
	if x, _, _ := w.GetElement(0); !x {
		t.Fatal("type-changing apply failed")
	}
}

func TestSelectM(t *testing.T) {
	a := kernelFixture(t)
	b := SelectM(func(_, _ Index, v int) bool { return v >= 3 }, a)
	if b.NVals() != 3 {
		t.Fatalf("NVals = %d, want 3", b.NVals())
	}
}

// extract is ExtractSubmatrix into a new matrix with a new position table.
func extract[T any](a *Matrix[T], I, J []Index) (*Matrix[T], error) {
	c := NewMatrix[T](0, 0)
	return c, ExtractSubmatrix(c, a, I, J, make([]int32, a.NCols()))
}

func TestExtractSubmatrix(t *testing.T) {
	a := kernelFixture(t)
	c, err := extract(a, []Index{0, 2}, []Index{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// rows {0,2} × cols {0,3}: entries (0,0)=1, (2,0)=4 → (1,0), (2,3)=5 → (1,1)
	if c.NVals() != 3 {
		t.Fatalf("NVals = %d, want 3", c.NVals())
	}
	if x, _, _ := c.GetElement(1, 1); x != 5 {
		t.Fatalf("c(1,1) = %d, want 5", x)
	}
}

func TestExtractSubmatrixPermutedIndices(t *testing.T) {
	a := kernelFixture(t)
	c, err := extract(a, []Index{2, 0}, []Index{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	// c(0,0) = a(2,3) = 5; c(0,1) = a(2,0) = 4; c(1,1) = a(0,0) = 1.
	if x, _, _ := c.GetElement(0, 0); x != 5 {
		t.Fatalf("c(0,0) = %d, want 5", x)
	}
	if x, _, _ := c.GetElement(0, 1); x != 4 {
		t.Fatalf("c(0,1) = %d, want 4", x)
	}
	if x, _, _ := c.GetElement(1, 1); x != 1 {
		t.Fatalf("c(1,1) = %d, want 1", x)
	}
}

func TestExtractSubmatrixErrors(t *testing.T) {
	a := kernelFixture(t)
	if _, err := extract(a, []Index{0, 0}, []Index{0}); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("dup row: %v", err)
	}
	if _, err := extract(a, []Index{0}, []Index{0, 0}); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("dup col: %v", err)
	}
	if _, err := extract(a, []Index{9}, []Index{0}); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("row oob: %v", err)
	}
}

func TestMaskV(t *testing.T) {
	u, _ := VectorFromTuples(5, []Index{0, 1, 2, 3}, []int{1, 2, 3, 4}, nil)
	m, _ := VectorFromTuples(5, []Index{1, 3}, []bool{true, true}, nil)
	w := Must(MaskV(u, m, false))
	if w.NVals() != 2 {
		t.Fatalf("masked NVals = %d, want 2", w.NVals())
	}
	if x, _, _ := w.GetElement(3); x != 4 {
		t.Fatal("mask dropped a kept position")
	}
	wc := Must(MaskV(u, m, true))
	if wc.NVals() != 2 {
		t.Fatalf("complement NVals = %d, want 2", wc.NVals())
	}
	if _, ok, _ := wc.GetElement(1); ok {
		t.Fatal("complement kept a masked position")
	}
}

func TestMaskPartition(t *testing.T) {
	// mask ∪ ¬mask must reconstruct u exactly.
	u, _ := VectorFromTuples(8, []Index{0, 2, 4, 6}, []int{1, 2, 3, 4}, nil)
	m, _ := VectorFromTuples(8, []Index{2, 3, 6}, []bool{true, true, true}, nil)
	inMask := Must(MaskV(u, m, false))
	outMask := Must(MaskV(u, m, true))
	back := Must(EWiseAddV(Plus[int], inMask, outMask))
	assertVectorsEqual(t, u, back)
}

func assertVectorsEqual[T comparable](t *testing.T, want, got *Vector[T]) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("sizes differ: %d vs %d", want.Size(), got.Size())
	}
	wi, wv := want.ExtractTuples()
	gi, gv := got.ExtractTuples()
	if len(wi) != len(gi) {
		t.Fatalf("nvals differ: %d vs %d (%v/%v vs %v/%v)", len(wi), len(gi), wi, wv, gi, gv)
	}
	for k := range wi {
		if wi[k] != gi[k] || wv[k] != gv[k] {
			t.Fatalf("tuple %d: (%d,%v) vs (%d,%v)", k, wi[k], wv[k], gi[k], gv[k])
		}
	}
}

func assertMatricesEqual[T comparable](t *testing.T, want, got *Matrix[T]) {
	t.Helper()
	if want.NRows() != got.NRows() || want.NCols() != got.NCols() {
		t.Fatalf("shapes differ: %d×%d vs %d×%d", want.NRows(), want.NCols(), got.NRows(), got.NCols())
	}
	wr, wc, wv := want.ExtractTuples()
	gr, gc, gv := got.ExtractTuples()
	if len(wr) != len(gr) {
		t.Fatalf("nvals differ: %d vs %d", len(wr), len(gr))
	}
	for k := range wr {
		if wr[k] != gr[k] || wc[k] != gc[k] || wv[k] != gv[k] {
			t.Fatalf("tuple %d: (%d,%d,%v) vs (%d,%d,%v)", k, wr[k], wc[k], wv[k], gr[k], gc[k], gv[k])
		}
	}
}
