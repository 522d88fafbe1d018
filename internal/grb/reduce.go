package grb

// Reductions (GrB_reduce). The cast argument plays the role of the implicit
// typecast in the C API: GraphBLAS reduces a BOOL matrix with a PLUS_INT64
// monoid by casting true→1; here the caster is explicit. One counts
// entries.

// One maps every element to 1, turning a plus-reduction into a count.
func One[A any, C Number](_ A) C { return 1 }

// ReduceRows reduces each matrix row to a scalar, producing a sparse vector
// with entries only for non-empty rows: w_i = ⊕_j cast(A_ij).
// (GrB_Matrix_reduce_Monoid to a vector; row-wise, as in the C API default.)
func ReduceRows[A, C any](m Monoid[C], cast func(A) C, a *Matrix[A]) (*Vector[C], error) {
	a.Wait()
	val := make([]C, a.nrows)
	hit := make([]bool, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if a.rowPtr[i] == a.rowPtr[i+1] {
				continue
			}
			acc := m.Identity
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				acc = m.Op(acc, cast(a.val[p]))
			}
			val[i] = acc
			hit[i] = true
		}
	})
	w := NewVector[C](a.nrows)
	for i := 0; i < a.nrows; i++ {
		if hit[i] {
			w.setSorted(i, val[i])
		}
	}
	return w, nil
}

// ReduceCols reduces each matrix column to a scalar: w_j = ⊕_i cast(A_ij).
// Equivalent to ReduceRows over the transpose, without materializing it.
func ReduceCols[A, C any](m Monoid[C], cast func(A) C, a *Matrix[A]) (*Vector[C], error) {
	a.Wait()
	val := make([]C, a.ncols)
	hit := make([]bool, a.ncols)
	for p, j := range a.colInd {
		if !hit[j] {
			hit[j] = true
			val[j] = cast(a.val[p])
		} else {
			val[j] = m.Op(val[j], cast(a.val[p]))
		}
	}
	w := NewVector[C](a.ncols)
	for j := 0; j < a.ncols; j++ {
		if hit[j] {
			w.setSorted(j, val[j])
		}
	}
	return w, nil
}
