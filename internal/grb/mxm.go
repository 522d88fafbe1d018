package grb

import "slices"

// MxM computes C = A ⊕.⊗ B (GrB_mxm) with Gustavson's row-wise algorithm:
// for each row i of A, the rows of B selected by A(i,:) are scattered into a
// dense accumulator. Rows of A are processed in parallel; each worker owns
// its accumulator. Cost: O(Σ_ik nnz(B(k,:)) for A_ik ≠ 0), the standard
// sparse-matrix-multiply bound. A product of more than 2³¹−1 entries is
// ErrInvalidValue.
func MxM[A, B, C any](s Semiring[A, B, C], a *Matrix[A], b *Matrix[B]) (*Matrix[C], error) {
	if a.ncols != b.nrows {
		return nil, dimErrf("MxM: %d×%d times %d×%d", a.nrows, a.ncols, b.nrows, b.ncols)
	}
	a.Wait()
	b.Wait()
	c := NewMatrix[C](a.nrows, b.ncols)
	rowCols := make([][]int32, a.nrows)
	rowVals := make([][]C, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		acc := make([]C, b.ncols)
		present := make([]bool, b.ncols)
		var touched []int32
		for i := lo; i < hi; i++ {
			touched = touched[:0]
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				k := a.colInd[p]
				ax := a.val[p]
				for q := b.rowPtr[k]; q < b.rowPtr[k+1]; q++ {
					j := b.colInd[q]
					if !present[j] {
						present[j] = true
						acc[j] = s.Mul(ax, b.val[q])
						touched = append(touched, j)
					} else {
						acc[j] = s.Add.Op(acc[j], s.Mul(ax, b.val[q]))
					}
				}
			}
			if len(touched) == 0 {
				continue
			}
			slices.Sort(touched)
			cols := make([]int32, len(touched))
			vals := make([]C, len(touched))
			for t, j := range touched {
				cols[t] = j
				vals[t] = acc[j]
				present[j] = false
			}
			rowCols[i], rowVals[i] = cols, vals
		}
	})
	nnz := 0
	for _, cols := range rowCols {
		nnz += len(cols)
	}
	if nnz > maxIndex {
		return nil, invalidErrf("MxM: %d product entries overflow %d", nnz, maxIndex)
	}
	stitchRows(c, rowCols, rowVals)
	return c, nil
}
