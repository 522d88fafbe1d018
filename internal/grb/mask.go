package grb

// Structural masks ⟨M⟩: an output position is writable iff the mask stores
// an element there (or does not, under complement). The masked assignment of
// Alg. 2 line 14, Δscores⟨scores⁺⟩ ← scores′, is MaskV(scores′, scoresPlus,
// false); the incremental Q1 engine reads it as scores⁺'s pattern instead,
// because it accumulates scores′ in place.

// MaskV returns the elements of u at positions present in mask (or absent,
// when complement is true).
func MaskV[T, M any](u *Vector[T], mask *Vector[M], complement bool) (*Vector[T], error) {
	if u.n != mask.n {
		return nil, dimErrf("MaskV: %d vs mask %d", u.n, mask.n)
	}
	w := NewVector[T](u.n)
	p, q := 0, 0
	for p < len(u.ind) {
		for q < len(mask.ind) && mask.ind[q] < u.ind[p] {
			q++
		}
		inMask := q < len(mask.ind) && mask.ind[q] == u.ind[p]
		if inMask != complement {
			w.setSorted(u.ind[p], u.val[p])
		}
		p++
	}
	return w, nil
}

// MaskM returns the elements of a at positions present in mask (or absent,
// when complement is true).
func MaskM[T, M any](a *Matrix[T], mask *Matrix[M], complement bool) (*Matrix[T], error) {
	if a.nrows != mask.nrows || a.ncols != mask.ncols {
		return nil, dimErrf("MaskM: %d×%d vs mask %d×%d", a.nrows, a.ncols, mask.nrows, mask.ncols)
	}
	a.Wait()
	mask.Wait()
	c := NewMatrix[T](a.nrows, a.ncols)
	rowCols := make([][]Index, a.nrows)
	rowVals := make([][]T, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ap, ah := a.rowPtr[i], a.rowPtr[i+1]
			mp, mh := mask.rowPtr[i], mask.rowPtr[i+1]
			var cols []Index
			var vals []T
			for p := ap; p < ah; p++ {
				for mp < mh && mask.colInd[mp] < a.colInd[p] {
					mp++
				}
				inMask := mp < mh && mask.colInd[mp] == a.colInd[p]
				if inMask != complement {
					cols = append(cols, a.colInd[p])
					vals = append(vals, a.val[p])
				}
			}
			rowCols[i], rowVals[i] = cols, vals
		}
	})
	stitchRows(c, rowCols, rowVals)
	return c, nil
}
