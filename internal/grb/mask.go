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
