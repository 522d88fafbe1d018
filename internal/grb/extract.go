package grb

import "sort"

// Extract (GrB_extract): gather a submatrix or subvector by index lists.
// Index lists must not contain duplicates (unlike the C API, which permits
// them); duplicates return ErrInvalidValue.

// ExtractSubmatrix returns the len(I)×len(J) matrix C with
// C(r, c) = A(I[r], J[c]) where present. Only the rows listed in I are
// touched, and pending tuples of other rows are left unassembled, so
// extracting a small induced subgraph from a large updated matrix is cheap —
// this is step 2 of the batch Q2 algorithm. A row longer than J is probed
// at J's columns, as SuiteSparse's GrB_extract does, in O(len(J) · log
// deg); a shorter one is scanned, looking each column up in J. Strictly
// ascending, in-range index lists (an induced subgraph's sorted vertex
// list) are validated in one pass and J is binary-searched; other lists
// are checked for duplicates and looked up through maps.
func ExtractSubmatrix[T any](a *Matrix[T], I, J []Index) (*Matrix[T], error) {
	jSorted := ascendingIn(J, a.ncols)
	var colPos map[Index]int
	if !jSorted {
		colPos = make(map[Index]int, len(J))
		for p, j := range J {
			if j < 0 || j >= a.ncols {
				return nil, boundsErrf("ExtractSubmatrix: column %d outside [0,%d)", j, a.ncols)
			}
			if _, dup := colPos[j]; dup {
				return nil, invalidErrf("ExtractSubmatrix: duplicate column index %d", j)
			}
			colPos[j] = p
		}
	}
	var seenRow map[Index]struct{}
	if !ascendingIn(I, a.nrows) {
		seenRow = make(map[Index]struct{}, len(I))
		for _, i := range I {
			if i < 0 || i >= a.nrows {
				return nil, boundsErrf("ExtractSubmatrix: row %d outside [0,%d)", i, a.nrows)
			}
			if _, dup := seenRow[i]; dup {
				return nil, invalidErrf("ExtractSubmatrix: duplicate row index %d", i)
			}
			seenRow[i] = struct{}{}
		}
	}
	c := NewMatrix[T](len(I), len(J))
	for r, i := range I {
		c.rowPtr[r] = len(c.colInd)
		if a.rowPtr[i+1]-a.rowPtr[i]+len(a.pending[i]) > len(J) {
			// Probe the shorter side: look each J[p] up in the long row
			// (a hub's friends) instead of scanning it. Output is in J
			// order, so already sorted by p.
			for p, j := range J {
				if x, ok := a.get(i, j); ok {
					c.colInd = append(c.colInd, p)
					c.val = append(c.val, x)
				}
			}
			continue
		}
		a.forRow(i, func(j Index, x T) {
			var p int
			var ok bool
			if jSorted {
				p = sort.SearchInts(J, j)
				ok = p < len(J) && J[p] == j
			} else {
				p, ok = colPos[j]
			}
			if ok {
				c.colInd = append(c.colInd, p)
				c.val = append(c.val, x)
			}
		})
		// Row entries arrive by column, so positions in a sorted J do too.
		if row := c.colInd[c.rowPtr[r]:]; !jSorted && len(row) > 1 && !sort.IntsAreSorted(row) {
			sortColsVals(row, c.val[c.rowPtr[r]:])
		}
	}
	c.rowPtr[len(I)] = len(c.colInd)
	return c, nil
}

// ascendingIn reports whether idx is strictly ascending within [0, n).
func ascendingIn(idx []Index, n int) bool {
	if len(idx) > 0 && (idx[0] < 0 || idx[len(idx)-1] >= n) {
		return false
	}
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			return false
		}
	}
	return true
}

// sortColsVals co-sorts a (cols, vals) pair by column.
func sortColsVals[T any](cols []Index, vals []T) {
	perm := make([]int, len(cols))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return cols[perm[x]] < cols[perm[y]] })
	nc := make([]Index, len(cols))
	nv := make([]T, len(vals))
	for t, p := range perm {
		nc[t] = cols[p]
		nv[t] = vals[p]
	}
	copy(cols, nc)
	copy(vals, nv)
}

// ExtractRow returns row i of a as a sparse vector of size NCols.
func ExtractRow[T any](a *Matrix[T], i Index) (*Vector[T], error) {
	if i < 0 || i >= a.nrows {
		return nil, boundsErrf("ExtractRow: row %d outside [0,%d)", i, a.nrows)
	}
	w := NewVector[T](a.ncols)
	a.forRow(i, func(j Index, x T) {
		w.ind = append(w.ind, j)
		w.val = append(w.val, x)
	})
	return w, nil
}
