package grb

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func mustMatrix[T any](t *testing.T, nr, nc int, rows, cols []Index, vals []T) *Matrix[T] {
	t.Helper()
	a, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMatrixFromTuplesRoundTrip(t *testing.T) {
	rows := []Index{2, 0, 1, 0}
	cols := []Index{1, 3, 0, 1}
	vals := []int{21, 3, 10, 1}
	a := mustMatrix(t, 3, 4, rows, cols, vals)
	if a.NVals() != 4 {
		t.Fatalf("NVals = %d, want 4", a.NVals())
	}
	r, c, v := a.ExtractTuples()
	wantR := []Index{0, 0, 1, 2}
	wantC := []Index{1, 3, 0, 1}
	wantV := []int{1, 3, 10, 21}
	for k := range wantR {
		if r[k] != wantR[k] || c[k] != wantC[k] || v[k] != wantV[k] {
			t.Fatalf("tuple %d = (%d,%d,%d), want (%d,%d,%d)",
				k, r[k], c[k], v[k], wantR[k], wantC[k], wantV[k])
		}
	}
}

func TestMatrixFromTuplesDup(t *testing.T) {
	a, err := MatrixFromTuples(2, 2, []Index{1, 1, 1}, []Index{0, 0, 0}, []int{1, 2, 4}, Plus[int])
	if err != nil {
		t.Fatal(err)
	}
	if x, _, _ := a.GetElement(1, 0); x != 7 {
		t.Fatalf("dup-plus = %d, want 7", x)
	}
	a, err = MatrixFromTuples(2, 2, []Index{1, 1}, []Index{0, 0}, []int{1, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x, _, _ := a.GetElement(1, 0); x != 9 {
		t.Fatalf("dup-last = %d, want 9", x)
	}
}

func TestMatrixSetElementPending(t *testing.T) {
	a := NewMatrix[int](3, 3)
	Must0(a.SetElement(0, 1, 5))
	Must0(a.SetElement(2, 2, 9))
	if a.NPending() != 2 {
		t.Fatalf("NPending = %d, want 2", a.NPending())
	}
	// GetElement observes pending tuples without assembling.
	if x, ok, _ := a.GetElement(0, 1); !ok || x != 5 {
		t.Fatalf("GetElement before Wait = (%d,%v)", x, ok)
	}
	if a.NPending() != 2 {
		t.Fatal("GetElement should not assemble")
	}
	a.Wait()
	if a.NPending() != 0 {
		t.Fatal("Wait left pending tuples")
	}
	if x, ok, _ := a.GetElement(2, 2); !ok || x != 9 {
		t.Fatalf("GetElement after Wait = (%d,%v)", x, ok)
	}
}

func TestMatrixPendingOverwritesBase(t *testing.T) {
	a := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []int{1})
	Must0(a.SetElement(0, 0, 2)) // pending overwrite
	Must0(a.SetElement(0, 0, 3)) // newer pending wins
	if x, _, _ := a.GetElement(0, 0); x != 3 {
		t.Fatalf("pre-wait read = %d, want 3", x)
	}
	a.Wait()
	if x, _, _ := a.GetElement(0, 0); x != 3 {
		t.Fatalf("post-wait read = %d, want 3", x)
	}
	if a.NVals() != 1 {
		t.Fatalf("NVals = %d, want 1 (no duplicate entries)", a.NVals())
	}
}

func TestMatrixPendingEquivalentToEagerBuild(t *testing.T) {
	// Assembling random interleaved SetElement calls must equal a direct
	// build of the final values.
	rng := rand.New(rand.NewSource(7))
	const n = 50
	lazy := NewMatrix[int](n, n)
	want := map[[2]Index]int{}
	for k := 0; k < 2000; k++ {
		i, j, x := rng.Intn(n), rng.Intn(n), rng.Intn(1000)
		Must0(lazy.SetElement(i, j, x))
		want[[2]Index{i, j}] = x
		if k%97 == 0 {
			lazy.Wait() // interleave partial assemblies
		}
	}
	if lazy.NVals() != len(want) {
		t.Fatalf("NVals = %d, want %d", lazy.NVals(), len(want))
	}
	lazy.Iterate(func(i, j Index, x int) bool {
		if want[[2]Index{i, j}] != x {
			t.Fatalf("(%d,%d) = %d, want %d", i, j, x, want[[2]Index{i, j}])
		}
		return true
	})
}

func TestMatrixForRowMergesPending(t *testing.T) {
	a := mustMatrix(t, 2, 6, []Index{0, 0}, []Index{1, 4}, []int{10, 40})
	Must0(a.SetElement(0, 0, 1))
	Must0(a.SetElement(0, 4, 99)) // overwrite base
	Must0(a.SetElement(0, 5, 50))
	var got []Index
	var vals []int
	a.forRow(0, func(j Index, x int) {
		got = append(got, j)
		vals = append(vals, x)
	})
	wantJ := []Index{0, 1, 4, 5}
	wantV := []int{1, 10, 99, 50}
	if len(got) != len(wantJ) {
		t.Fatalf("forRow yielded %v", got)
	}
	for k := range wantJ {
		if got[k] != wantJ[k] || vals[k] != wantV[k] {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", k, got[k], vals[k], wantJ[k], wantV[k])
		}
	}
	if a.NPending() == 0 {
		t.Fatal("forRow must not assemble the matrix")
	}
}

func TestMatrixBounds(t *testing.T) {
	a := NewMatrix[int](2, 3)
	if err := a.SetElement(2, 0, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("row oob: %v", err)
	}
	if err := a.SetElement(0, 3, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("col oob: %v", err)
	}
	if _, _, err := a.GetElement(-1, 0); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("get oob: %v", err)
	}
	if _, err := MatrixFromTuples(2, 2, []Index{5}, []Index{0}, []int{1}, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("build oob: %v", err)
	}
	if _, err := MatrixFromTuples(2, 2, []Index{0, 1}, []Index{0}, []int{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("build length mismatch: %v", err)
	}
}

func TestMatrixResizeGrow(t *testing.T) {
	a := mustMatrix(t, 2, 2, []Index{1}, []Index{1}, []int{5})
	Must0(a.SetElement(0, 0, 1)) // leave a pending tuple across the resize
	Must0(a.Resize(4, 5))
	if a.NRows() != 4 || a.NCols() != 5 {
		t.Fatalf("shape = %d×%d", a.NRows(), a.NCols())
	}
	Must0(a.SetElement(3, 4, 7))
	if x, _, _ := a.GetElement(1, 1); x != 5 {
		t.Fatal("grow lost existing element")
	}
	if x, _, _ := a.GetElement(0, 0); x != 1 {
		t.Fatal("grow lost pending element")
	}
	if x, _, _ := a.GetElement(3, 4); x != 7 {
		t.Fatal("cannot write into grown region")
	}
}

func TestMatrixResizeShrink(t *testing.T) {
	a := mustMatrix(t, 3, 3,
		[]Index{0, 1, 2, 2}, []Index{0, 2, 0, 2}, []int{1, 2, 3, 4})
	Must0(a.SetElement(2, 1, 5)) // a pending tuple the refusal must keep
	Must0(a.RemoveElement(0, 0)) // and a pending deletion
	want := map[[2]Index]int{{1, 2}: 2, {2, 0}: 3, {2, 1}: 5, {2, 2}: 4}
	for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {-1, 3}, {4, 1}} {
		if err := a.Resize(shape[0], shape[1]); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("Resize(%d, %d) of a 3×3 matrix: err = %v, want ErrInvalidValue", shape[0], shape[1], err)
		}
		if a.NRows() != 3 || a.NCols() != 3 || a.NPending() != 2 {
			t.Fatalf("refused Resize(%d, %d) left a %d×%d matrix with %d pending tuples",
				shape[0], shape[1], a.NRows(), a.NCols(), a.NPending())
		}
	}
	if got := matToMap(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("after refused shrinks: %v, want %v", got, want)
	}
}

// TestMatrixColumnBound checks the 32-bit bound on a matrix's columns:
// NewMatrix panics with ErrInvalidValue at 2³¹ columns and Resize refuses
// them, leaving the matrix as it was, while 2³¹−1 columns hold an entry in
// the last one. Columns cost nothing to allocate, so this allocates
// nothing whether or not the bound is checked; rows cost a pointer each.
func TestMatrixColumnBound(t *testing.T) {
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrInvalidValue) {
				t.Fatalf("NewMatrix(1, 1<<31) panicked with %v, want ErrInvalidValue", err)
			}
		}()
		NewMatrix[int](1, 1<<31)
	}()
	a := mustMatrix(t, 2, 3, []Index{1}, []Index{2}, []int{5})
	if err := a.Resize(2, 1<<31); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("Resize(2, 1<<31): err = %v, want ErrInvalidValue", err)
	}
	if a.NRows() != 2 || a.NCols() != 3 {
		t.Fatalf("refused Resize left a %d×%d matrix", a.NRows(), a.NCols())
	}
	Must0(a.Resize(2, 1<<31-1))
	Must0(a.SetElement(1, 1<<31-2, 7))
	want := map[[2]Index]int{{1, 2}: 5, {1, 1<<31 - 2}: 7}
	if got := matToMap(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("2×(2³¹−1) matrix holds %v, want %v", got, want)
	}
	if _, err := MatrixFromTuples(1, 1<<31, []Index{0}, []Index{1 << 30}, []int{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("MatrixFromTuples(1, 1<<31, ...): err = %v, want ErrInvalidValue", err)
	}
}

// rowNNZ counts the entries forRow visits in row i, pending ones included.
func (a *Matrix[T]) rowNNZ(i Index) int {
	n := 0
	a.forRow(i, func(Index, T) { n++ })
	return n
}

func TestMatrixRowNNZ(t *testing.T) {
	a := mustMatrix(t, 2, 5, []Index{0, 0}, []Index{1, 3}, []int{1, 1})
	if got := a.rowNNZ(0); got != 2 {
		t.Fatalf("rowNNZ = %d, want 2", got)
	}
	Must0(a.SetElement(0, 3, 9)) // overwrite: count unchanged
	Must0(a.SetElement(0, 4, 9)) // new entry
	if got := a.rowNNZ(0); got != 3 {
		t.Fatalf("rowNNZ with pending = %d, want 3", got)
	}
}

func TestMatrixRowNValsBound(t *testing.T) {
	a := mustMatrix(t, 2, 5, []Index{0, 0}, []Index{1, 3}, []int{1, 1})
	if got := a.RowNValsBound(0); got != 2 {
		t.Fatalf("RowNValsBound = %d, want the exact 2 with nothing pending", got)
	}
	Must0(a.SetElement(0, 3, 9)) // overwrite
	Must0(a.SetElement(0, 4, 9)) // new entry
	Must0(a.RemoveElement(0, 1)) // tombstone
	if got, exact := a.RowNValsBound(0), a.rowNNZ(0); got < exact || got != 2+3 {
		t.Fatalf("RowNValsBound with pending = %d, want stored 2 + pending 3 (≥ exact %d)", got, exact)
	}
	if got := a.RowNValsBound(1); got != 0 {
		t.Fatalf("RowNValsBound of an empty row = %d", got)
	}
	a.Wait()
	if got, exact := a.RowNValsBound(0), a.rowNNZ(0); got != exact {
		t.Fatalf("RowNValsBound after Wait = %d, want exact %d", got, exact)
	}
}
