package grb

// Element-wise operations (GrB_eWiseAdd = set union of structures,
// GrB_eWiseMult = set intersection). Union requires both operands to share
// one element type because the operator must be applicable when either side
// is absent; intersection may mix types freely.

// EWiseAddV returns the element-wise union w = u ⊕ v: positions present in
// either operand, combined with op where both are present.
func EWiseAddV[T any](op func(T, T) T, u, v *Vector[T]) (*Vector[T], error) {
	if u.n != v.n {
		return nil, dimErrf("EWiseAddV: %d vs %d", u.n, v.n)
	}
	w := NewVector[T](u.n)
	w.ind = make([]Index, 0, len(u.ind)+len(v.ind))
	w.val = make([]T, 0, len(u.ind)+len(v.ind))
	p, q := 0, 0
	for p < len(u.ind) && q < len(v.ind) {
		switch {
		case u.ind[p] < v.ind[q]:
			w.setSorted(u.ind[p], u.val[p])
			p++
		case u.ind[p] > v.ind[q]:
			w.setSorted(v.ind[q], v.val[q])
			q++
		default:
			w.setSorted(u.ind[p], op(u.val[p], v.val[q]))
			p++
			q++
		}
	}
	for ; p < len(u.ind); p++ {
		w.setSorted(u.ind[p], u.val[p])
	}
	for ; q < len(v.ind); q++ {
		w.setSorted(v.ind[q], v.val[q])
	}
	return w, nil
}

// EWiseMultV returns the element-wise intersection w = u ⊗ v: positions
// present in both operands, combined with op.
func EWiseMultV[A, B, C any](op func(A, B) C, u *Vector[A], v *Vector[B]) (*Vector[C], error) {
	if u.n != v.n {
		return nil, dimErrf("EWiseMultV: %d vs %d", u.n, v.n)
	}
	w := NewVector[C](u.n)
	p, q := 0, 0
	for p < len(u.ind) && q < len(v.ind) {
		switch {
		case u.ind[p] < v.ind[q]:
			p++
		case u.ind[p] > v.ind[q]:
			q++
		default:
			w.setSorted(u.ind[p], op(u.val[p], v.val[q]))
			p++
			q++
		}
	}
	return w, nil
}

// stitchRows assembles per-row slices produced by a parallel kernel into the
// CSR arrays of c.
func stitchRows[T any](c *Matrix[T], rowCols [][]Index, rowVals [][]T) {
	nnz := 0
	for i := range rowCols {
		c.rowPtr[i] = nnz
		nnz += len(rowCols[i])
	}
	c.rowPtr[c.nrows] = nnz
	c.colInd = make([]Index, nnz)
	c.val = make([]T, nnz)
	parallelRanges(c.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(c.colInd[c.rowPtr[i]:], rowCols[i])
			copy(c.val[c.rowPtr[i]:], rowVals[i])
		}
	})
}
