package grb

import (
	"cmp"
	"slices"
)

// MxV computes w = A ⊕.⊗ u (GrB_mxv): w_i = ⊕_j mul(A_ij, u_j) over the
// structural intersection of row i and u. The vector is gathered into dense
// scratch once; rows are processed in parallel. Cost: O(nnz(A) + n).
func MxV[A, B, C any](s Semiring[A, B, C], a *Matrix[A], u *Vector[B]) (*Vector[C], error) {
	if a.ncols != u.n {
		return nil, dimErrf("MxV: matrix is %d×%d but vector has size %d", a.nrows, a.ncols, u.n)
	}
	a.Wait()
	uval := make([]B, a.ncols)
	upresent := make([]bool, a.ncols)
	for p, i := range u.ind {
		uval[i] = u.val[p]
		upresent[i] = true
	}
	rowVal := make([]C, a.nrows)
	hit := make([]bool, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.Add.Identity
			any := false
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				j := a.colInd[p]
				if upresent[j] {
					acc = s.Add.Op(acc, s.Mul(a.val[p], uval[j]))
					any = true
				}
			}
			if any {
				rowVal[i] = acc
				hit[i] = true
			}
		}
	})
	w := NewVector[C](a.nrows)
	for i := 0; i < a.nrows; i++ {
		if hit[i] {
			w.setSorted(i, rowVal[i])
		}
	}
	return w, nil
}

// MxVFull computes w = A ⊕.⊗ u for full (dense) vectors u and w, the
// SuiteSparse "full" format: w[i] = ⊕_j mul(A_ij, u[j]) over row i's
// stored entries, the monoid's identity for an empty row. It reads
// pending tuples in place, never assembles a and allocates nothing, so a
// caller that keeps u and w from call to call (FastSV on each of Q2's
// small subgraphs) pays O(nrows + nnz(A)) and no garbage.
func MxVFull[A, B, C any](s Semiring[A, B, C], a *Matrix[A], u []B, w []C) error {
	if len(u) != a.ncols || len(w) != a.nrows {
		return dimErrf("MxVFull: matrix is %d×%d but vectors have sizes %d and %d", a.nrows, a.ncols, len(u), len(w))
	}
	for i := range w {
		acc := s.Add.Identity
		if len(a.pending[int32(i)]) == 0 {
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				acc = s.Add.Op(acc, s.Mul(a.val[p], u[a.colInd[p]]))
			}
		} else {
			a.forRow(i, func(j Index, x A) { acc = s.Add.Op(acc, s.Mul(x, u[j])) })
		}
		w[i] = acc
	}
	return nil
}

// VxM computes wᵀ = uᵀ ⊕.⊗ A (GrB_vxm): w_j = ⊕_i mul(u_i, A_ij). This is
// the sparse "pull from few rows" kernel: it touches only the rows of A
// indexed by u's stored elements and never assembles pending tuples of
// untouched rows — the workhorse of the incremental algorithms. It keeps
// Gustavson's accumulator sparse: the W = Σ_{i ∈ supp(u)} nnz(A(i,:))
// products are sorted by column, then by u's index, and folded in that
// order, so each column folds in u's order. That costs O(W log W) time and
// O(W) scratch, whatever A's column count.
func VxM[A, B, C any](s Semiring[A, B, C], u *Vector[A], a *Matrix[B]) (*Vector[C], error) {
	if u.n != a.nrows {
		return nil, dimErrf("VxM: vector has size %d but matrix is %d×%d", u.n, a.nrows, a.ncols)
	}
	work := 0 // an upper bound on W: stored plus pending entries of the rows
	for _, i := range u.ind {
		work += a.RowNValsBound(i)
	}
	prods := make([]vxmProduct[C], 0, work)
	for p, i := range u.ind {
		ux := u.val[p]
		a.forRow(i, func(j Index, x B) {
			prods = append(prods, vxmProduct[C]{j, i, s.Mul(ux, x)})
		})
	}
	slices.SortFunc(prods, func(x, y vxmProduct[C]) int {
		if c := cmp.Compare(x.col, y.col); c != 0 {
			return c
		}
		return cmp.Compare(x.row, y.row)
	})
	w := NewVector[C](a.ncols)
	w.ind = make([]Index, 0, len(prods))
	w.val = make([]C, 0, len(prods))
	for _, e := range prods {
		if k := len(w.ind) - 1; k >= 0 && w.ind[k] == e.col {
			w.val[k] = s.Add.Op(w.val[k], e.x)
		} else {
			w.setSorted(e.col, e.x)
		}
	}
	return w, nil
}

// vxmProduct is one product mul(u_i, A_ij) in VxM's accumulator.
type vxmProduct[C any] struct {
	col, row Index
	x        C
}
