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

// EWiseAddM returns the element-wise union C = A ⊕ B over matching shapes.
// Rows are processed in parallel.
func EWiseAddM[T any](op func(T, T) T, a, b *Matrix[T]) (*Matrix[T], error) {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return nil, dimErrf("EWiseAddM: %d×%d vs %d×%d", a.nrows, a.ncols, b.nrows, b.ncols)
	}
	a.Wait()
	b.Wait()
	c := NewMatrix[T](a.nrows, a.ncols)
	rowCols := make([][]Index, a.nrows)
	rowVals := make([][]T, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ap, ah := a.rowPtr[i], a.rowPtr[i+1]
			bp, bh := b.rowPtr[i], b.rowPtr[i+1]
			if ap == ah && bp == bh {
				continue
			}
			cols := make([]Index, 0, (ah-ap)+(bh-bp))
			vals := make([]T, 0, cap(cols))
			for ap < ah && bp < bh {
				switch {
				case a.colInd[ap] < b.colInd[bp]:
					cols = append(cols, a.colInd[ap])
					vals = append(vals, a.val[ap])
					ap++
				case a.colInd[ap] > b.colInd[bp]:
					cols = append(cols, b.colInd[bp])
					vals = append(vals, b.val[bp])
					bp++
				default:
					cols = append(cols, a.colInd[ap])
					vals = append(vals, op(a.val[ap], b.val[bp]))
					ap++
					bp++
				}
			}
			for ; ap < ah; ap++ {
				cols = append(cols, a.colInd[ap])
				vals = append(vals, a.val[ap])
			}
			for ; bp < bh; bp++ {
				cols = append(cols, b.colInd[bp])
				vals = append(vals, b.val[bp])
			}
			rowCols[i], rowVals[i] = cols, vals
		}
	})
	stitchRows(c, rowCols, rowVals)
	return c, nil
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
