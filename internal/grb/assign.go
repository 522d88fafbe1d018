package grb

import "slices"

// Assign (GrB_assign): write a sparse vector into positions of another,
// selected by an index list, optionally with an accumulator. Positions of
// the target outside the assigned region are untouched (no GrB_REPLACE
// semantics; filter beforehand with MaskV if replacement is needed).

// AssignV writes u into w at positions I: w(I[k]) = u(k) for every stored
// element k of u. Existing elements at assigned positions are overwritten;
// when accum is non-nil they are combined as accum(old, new). I must have
// one target index per position of u (len(I) == u.Size()) without
// duplicates. A nil I is GrB_ALL: w(i) = u(i) for every stored element of
// u, which must have w's size; that form works in place, costing
// O(nnz(u) log nnz(w)) plus one merge over w's tail when u adds positions,
// and no scratch beyond w's growth.
func AssignV[T any](w *Vector[T], I []Index, u *Vector[T], accum func(T, T) T) error {
	if I == nil {
		if u.n != w.n {
			return dimErrf("AssignV: vector of size %d assigned to all of size %d", u.n, w.n)
		}
		assignAll(w, u, accum)
		return nil
	}
	if len(I) != u.n {
		return dimErrf("AssignV: %d indices for a vector of size %d", len(I), u.n)
	}
	seen := make(map[Index]struct{}, len(I))
	for _, i := range I {
		if i < 0 || i >= w.n {
			return boundsErrf("AssignV: target index %d outside [0,%d)", i, w.n)
		}
		if _, dup := seen[i]; dup {
			return invalidErrf("AssignV: duplicate target index %d", i)
		}
		seen[i] = struct{}{}
	}
	for p, k := range u.ind {
		i := I[k]
		x := u.val[p]
		if accum != nil {
			if old, ok, _ := w.GetElement(i); ok {
				x = accum(old, x)
			}
		}
		if err := w.SetElement(i, x); err != nil {
			return err
		}
	}
	return nil
}

// assignAll is AssignV over GrB_ALL. Positions present in w are updated
// where they are; new ones are merged in from the back, so each stored
// element moves at most once.
func assignAll[T any](w, u *Vector[T], accum func(T, T) T) {
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
		return
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
}
