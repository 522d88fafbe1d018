package grb

// Apply (GrB_apply): map a unary operator over every stored element, keeping
// the structure.

// ApplyV returns f mapped over u's stored elements.
func ApplyV[A, B any](f UnaryOp[A, B], u *Vector[A]) *Vector[B] {
	w := NewVector[B](u.n)
	w.ind = make([]Index, len(u.ind))
	copy(w.ind, u.ind)
	w.val = make([]B, len(u.val))
	for p, x := range u.val {
		w.val[p] = f(x)
	}
	return w
}
