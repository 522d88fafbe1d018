package grb

// Select (GxB_select): keep only the stored elements satisfying a
// positional/value predicate, e.g. "cells equal to 2" in step 2 of the
// incremental Q2 algorithm.

// SelectM returns the elements of a for which pred(i, j, A_ij) holds.
func SelectM[T any](pred func(i, j Index, v T) bool, a *Matrix[T]) *Matrix[T] {
	a.Wait()
	b := NewMatrix[T](a.nrows, a.ncols)
	rowCols := make([][]int32, a.nrows)
	rowVals := make([][]T, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var cols []int32
			var vals []T
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				if pred(i, Index(a.colInd[p]), a.val[p]) {
					cols = append(cols, a.colInd[p])
					vals = append(vals, a.val[p])
				}
			}
			rowCols[i], rowVals[i] = cols, vals
		}
	})
	stitchRows(b, rowCols, rowVals)
	return b
}
