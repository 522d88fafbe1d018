package grb

import "slices"

// AssignV is GrB_assign over GrB_ALL: w(i) = u(i) for every stored
// element of u, which must have w's size. Positions of w that u does not
// store are untouched (no GrB_REPLACE semantics; filter beforehand with
// MaskV if replacement is needed). Existing elements at assigned positions
// are overwritten, or combined as accum(old, new) when accum is non-nil.
// It works in place: positions present in w are updated where they are and
// new ones are merged in from the back, so each stored element moves at
// most once, costing O(nnz(u) log nnz(w)) plus one merge over w's tail
// when u adds positions, and no scratch beyond w's growth.
func AssignV[T any](w, u *Vector[T], accum func(T, T) T) error {
	if u.n != w.n {
		return dimErrf("AssignV: vector of size %d assigned to all of size %d", u.n, w.n)
	}
	added := 0
	for p, i := range u.ind {
		q, ok := w.find(i)
		switch {
		case !ok:
			added++
		case accum != nil:
			w.val[q] = accum(w.val[q], u.val[p])
		default:
			w.val[q] = u.val[p]
		}
	}
	if added == 0 {
		return nil
	}
	q := len(w.ind) - 1 // last old element not yet placed
	w.ind = slices.Grow(w.ind, added)[:len(w.ind)+added]
	w.val = slices.Grow(w.val, added)[:len(w.val)+added]
	for p, d := len(u.ind)-1, len(w.ind)-1; d > q; d-- {
		if q >= 0 && w.ind[q] >= u.ind[p] {
			if w.ind[q] == u.ind[p] { // updated in place above
				p--
			}
			w.ind[d], w.val[d] = w.ind[q], w.val[q]
			q--
		} else {
			w.ind[d], w.val[d] = u.ind[p], u.val[p]
			p--
		}
	}
	return nil
}
