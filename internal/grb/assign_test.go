package grb

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

func TestAssignV(t *testing.T) {
	w := NewVector[int](8)
	Must0(w.SetElement(1, 100))
	Must0(w.SetElement(3, 300))
	u, _ := VectorFromTuples(8, []Index{1, 6}, []int{7, 9}, nil)
	// w(:) = u over GrB_ALL: w[1] = 7 (overwrite), w[6] = 9, w[3] untouched.
	if err := AssignV(w, u, nil); err != nil {
		t.Fatal(err)
	}
	if x, _, _ := w.GetElement(1); x != 7 {
		t.Fatalf("w[1] = %d, want overwritten 7", x)
	}
	if x, _, _ := w.GetElement(3); x != 300 {
		t.Fatalf("w[3] = %d, want untouched 300", x)
	}
	if _, ok, _ := w.GetElement(4); ok {
		t.Fatal("w[4] must stay empty (u[4] empty)")
	}
	if x, _, _ := w.GetElement(6); x != 9 {
		t.Fatalf("w[6] = %d, want 9", x)
	}
}

func TestAssignVAccum(t *testing.T) {
	w := NewVector[int](4)
	Must0(w.SetElement(2, 10))
	u, _ := VectorFromTuples(4, []Index{2, 3}, []int{5, 6}, nil)
	if err := AssignV(w, u, Plus[int]); err != nil {
		t.Fatal(err)
	}
	if x, _, _ := w.GetElement(2); x != 15 {
		t.Fatalf("w[2] = %d, want accumulated 15", x)
	}
	if x, _, _ := w.GetElement(3); x != 6 {
		t.Fatalf("w[3] = %d, want 6 (no prior element)", x)
	}
}

func TestAssignVErrors(t *testing.T) {
	w := NewVector[int](4)
	Must0(w.SetElement(1, 10))
	u, _ := VectorFromTuples(2, []Index{1}, []int{5}, nil)
	if err := AssignV(w, u, Plus[int]); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("size mismatch over GrB_ALL: %v", err)
	}
	if got := vecToMap(w); !reflect.DeepEqual(got, map[Index]int{1: 10}) {
		t.Fatalf("a refused AssignV changed w to %v", got)
	}
}

func TestSortedUnique(t *testing.T) {
	if !sortedUnique([]Index{1, 3, 5}) {
		t.Fatal("sorted unique rejected")
	}
	if sortedUnique([]Index{1, 1}) {
		t.Fatal("duplicate accepted")
	}
	if sortedUnique([]Index{3, 1}) {
		t.Fatal("unsorted accepted")
	}
}

// sortedUnique reports whether ind is strictly increasing: a stored
// vector's index invariant.
func sortedUnique(ind []Index) bool {
	return sort.SliceIsSorted(ind, func(a, b int) bool { return ind[a] < ind[b] }) &&
		func() bool {
			for k := 1; k < len(ind); k++ {
				if ind[k] == ind[k-1] {
					return false
				}
			}
			return true
		}()
}
