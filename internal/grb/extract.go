package grb

import "slices"

// Extract (GrB_extract): gather a submatrix or subvector by index lists.
// Index lists must not contain duplicates (unlike the C API, which permits
// them); duplicates return ErrInvalidValue.

// ExtractSubmatrix writes into c the len(I)×len(J) matrix
// C(r, k) = A(I[r], J[k]) where present, reusing c's storage. Only the rows
// listed in I are touched, and pending tuples of other rows are left
// unassembled, so extracting a small induced subgraph from a large updated
// matrix costs the rows it reads — step 2 of the batch Q2 algorithm.
//
// pos is the caller's inverse index over a's columns, the method
// SuiteSparse:GraphBLAS uses for long index lists (Davis, "Algorithm 1000",
// ACM TOMS 45(4), 2019): it needs at least NCols slots, all zero on entry,
// and is all zero again on return, error or not. ExtractSubmatrix marks
// pos[J[k]] = k+1, so a scanned row finds each column's position in O(1).
// A row longer than J is walked at J's columns instead: an ascending J
// gallops through the row and its pending list, fetched once, in
// O(len(J) · log(deg/len(J))); an unsorted J probes each column in
// O(log deg). So a hub row costs no more than the list. Cost: O(len(I) + len(J)
// + the entries of the scanned rows), plus a sort of each output row when
// J is not ascending; unsorted row lists are checked for duplicates
// through a map.
func ExtractSubmatrix[T any](c, a *Matrix[T], I, J []Index, pos []int32) error {
	if c == a {
		return invalidErrf("ExtractSubmatrix: output aliases the input")
	}
	if len(pos) < a.ncols {
		return invalidErrf("ExtractSubmatrix: position table has %d slots for %d columns", len(pos), a.ncols)
	}
	if len(J) >= maxIndex {
		return invalidErrf("ExtractSubmatrix: %d columns overflow the position table", len(J))
	}
	jSorted := true
	for k, j := range J {
		if j < 0 || j >= a.ncols {
			unmark(pos, J[:k])
			return boundsErrf("ExtractSubmatrix: column %d outside [0,%d)", j, a.ncols)
		}
		if pos[j] != 0 {
			unmark(pos, J[:k])
			return invalidErrf("ExtractSubmatrix: duplicate column index %d", j)
		}
		pos[j] = int32(k + 1)
		jSorted = jSorted && (k == 0 || j > J[k-1])
	}
	defer unmark(pos, J)
	if !ascendingIn(I, a.nrows) {
		seenRow := make(map[Index]struct{}, len(I))
		for _, i := range I {
			if i < 0 || i >= a.nrows {
				return boundsErrf("ExtractSubmatrix: row %d outside [0,%d)", i, a.nrows)
			}
			if _, dup := seenRow[i]; dup {
				return invalidErrf("ExtractSubmatrix: duplicate row index %d", i)
			}
			seenRow[i] = struct{}{}
		}
	}
	c.reset(len(I), len(J))
	var keys []uint64 // sortRow's scratch for the rows of an unsorted J
	for r, i := range I {
		c.rowPtr[r] = int32(len(c.colInd))
		lo, hi, pend := int(a.rowPtr[i]), int(a.rowPtr[i+1]), a.pending[int32(i)]
		switch {
		case hi-lo+len(pend) > len(J) && jSorted:
			// Walk the shorter side: an ascending J gallops through the
			// long row (a hub's friends) and its pending list instead of
			// scanning them. Output is in J order, so already sorted by k.
			q, pq := lo, 0
			for k, j := range J {
				j := int32(j)
				if pq = gallopPending(pend, pq, j); pq < len(pend) && pend[pq].col == j {
					if !pend[pq].del { // a pending entry shadows the stored one
						c.colInd = append(c.colInd, int32(k))
						c.val = append(c.val, pend[pq].val)
					}
					continue
				}
				if q = gallop(a.colInd, q, hi, j); q < hi && a.colInd[q] == j {
					c.colInd = append(c.colInd, int32(k))
					c.val = append(c.val, a.val[q])
				}
			}
			continue
		case hi-lo+len(pend) > len(J):
			// An unsorted J probes the long row at each of its columns.
			for k, j := range J {
				if x, ok := a.get(i, j); ok {
					c.colInd = append(c.colInd, int32(k))
					c.val = append(c.val, x)
				}
			}
			continue
		case len(pend) == 0:
			for q := lo; q < hi; q++ {
				if k := pos[a.colInd[q]]; k != 0 {
					c.colInd = append(c.colInd, k-1)
					c.val = append(c.val, a.val[q])
				}
			}
		default:
			a.forRow(i, func(j Index, x T) {
				if k := pos[j]; k != 0 {
					c.colInd = append(c.colInd, k-1)
					c.val = append(c.val, x)
				}
			})
		}
		// Row entries arrive by column, so positions in a sorted J do too.
		if !jSorted {
			keys = sortRow(c.colInd[c.rowPtr[r]:], c.val[c.rowPtr[r]:], keys)
		}
	}
	c.rowPtr[len(I)] = int32(len(c.colInd))
	return nil
}

// gallop returns the first position in cols[from:hi], ascending, whose
// column is at least j (hi if none): doubling steps from from, then a
// binary search within the last step, so walking an ascending list of m
// columns through a row of d entries costs O(m · log(d/m)).
func gallop(cols []int32, from, hi int, j int32) int {
	step, lo := 1, from
	for from < hi && cols[from] < j {
		lo = from + 1
		from += step
		step *= 2
	}
	p, _ := slices.BinarySearch(cols[lo:min(from, hi)], j)
	return lo + p
}

// gallopPending is gallop over a row's pending entries.
func gallopPending[T any](ents []matEntry[T], from int, j int32) int {
	step, lo := 1, from
	for from < len(ents) && ents[from].col < j {
		lo = from + 1
		from += step
		step *= 2
	}
	return lo + searchPending(ents[lo:min(from, len(ents))], j)
}

// unmark clears the inverse-index slots ExtractSubmatrix set for cols.
func unmark(pos []int32, cols []Index) {
	for _, j := range cols {
		pos[j] = 0
	}
}

// reset makes a an empty nrows×ncols matrix with nothing pending, keeping
// its arrays' capacity for reuse.
func (a *Matrix[T]) reset(nrows, ncols int) {
	a.nrows, a.ncols = nrows, ncols
	a.rowPtr = slices.Grow(a.rowPtr[:0], nrows+1)[:nrows+1]
	a.rowPtr[0] = 0
	a.colInd, a.val = a.colInd[:0], a.val[:0]
	a.pending, a.npend, a.pendDelta = nil, 0, 0
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
