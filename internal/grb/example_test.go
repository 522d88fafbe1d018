package grb_test

import (
	"fmt"

	"repro/internal/grb"
)

// Build a small adjacency matrix and multiply it with a vector over the
// conventional (+, ×) semiring, defined as a plain value.
func ExampleMxV() {
	a, _ := grb.MatrixFromTuples(2, 3,
		[]grb.Index{0, 0, 1},
		[]grb.Index{0, 2, 1},
		[]int{1, 2, 3}, nil)
	u, _ := grb.VectorFromTuples(3, []grb.Index{0, 1, 2}, []int{10, 20, 30}, nil)
	plusTimes := grb.Semiring[int, int, int]{
		Add: grb.PlusMonoid[int](),
		Mul: func(x, y int) int { return x * y },
	}
	w, _ := grb.MxV(plusTimes, a, u)
	w.Iterate(func(i grb.Index, x int) bool {
		fmt.Printf("w[%d] = %d\n", i, x)
		return true
	})
	// Output:
	// w[0] = 70
	// w[1] = 60
}

// eWiseAdd is a set union.
func ExampleEWiseAddV() {
	u, _ := grb.VectorFromTuples(4, []grb.Index{0, 2}, []int{1, 2}, nil)
	v, _ := grb.VectorFromTuples(4, []grb.Index{2, 3}, []int{10, 20}, nil)
	sum, _ := grb.EWiseAddV(grb.Plus[int], u, v)
	fmt.Println("union entries:", sum.NVals())
	// Output:
	// union entries: 3
}

// Updates buffer as pending tuples; deletions buffer as zombies. Both are
// observed immediately and assembled lazily, and a newer one replaces an
// older one at the same position. NVals counts them without assembling,
// so assembly takes an explicit Wait.
func ExampleMatrix_Wait() {
	a := grb.NewMatrix[int](2, 2)
	_ = a.SetElement(0, 0, 7)
	_ = a.SetElement(1, 1, 8)
	_ = a.RemoveElement(0, 0)
	fmt.Println("entries:", a.NVals(), "pending ops:", a.NPending())
	a.Wait()
	fmt.Println("entries:", a.NVals(), "pending ops:", a.NPending())
	// Output:
	// entries: 1 pending ops: 2
	// entries: 1 pending ops: 0
}

// A structural mask keeps only the positions present in the mask.
func ExampleMaskV() {
	u, _ := grb.VectorFromTuples(4, []grb.Index{0, 1, 2, 3}, []int{1, 2, 3, 4}, nil)
	m, _ := grb.VectorFromTuples(4, []grb.Index{1, 3}, []bool{true, true}, nil)
	kept, _ := grb.MaskV(u, m, false)
	dropped, _ := grb.MaskV(u, m, true)
	fmt.Println("kept:", kept.NVals(), "dropped:", dropped.NVals())
	// Output:
	// kept: 2 dropped: 2
}

// Reductions fold rows (or the whole matrix) through a monoid; the explicit
// cast plays the role of the C API's implicit typecast.
func ExampleReduceRows() {
	a, _ := grb.MatrixFromTuples(2, 3,
		[]grb.Index{0, 0, 1},
		[]grb.Index{0, 1, 2},
		[]bool{true, true, true}, nil)
	counts, _ := grb.ReduceRows(grb.PlusMonoid[int](), grb.One[bool, int], a)
	counts.Iterate(func(i grb.Index, c int) bool {
		fmt.Printf("row %d has %d entries\n", i, c)
		return true
	})
	// Output:
	// row 0 has 2 entries
	// row 1 has 1 entries
}
