package lagraph

import (
	"math"

	"repro/internal/grb"
)

// FastSV computes connected components of the undirected graph given by the
// symmetric boolean adjacency matrix a. It returns a label per vertex; two
// vertices get equal labels iff they are connected, and each label is the
// minimum vertex id of its component.
func FastSV(a *grb.Matrix[bool]) ([]int, error) { return new(CCWorkspace).FastSV(a) }

// CCWorkspace holds FastSV's per-vertex arrays and the component-size
// counts, so that a caller scoring many small graphs one after another
// allocates only when a graph larger than every earlier one arrives. The
// zero value is ready to use; a workspace serves one goroutine at a time.
type CCWorkspace struct {
	f, gp, mngp []int
}

// FastSV is FastSV computed in ws. The labels it returns are ws's own
// parent array: they stay valid until ws's next call.
//
// The algorithm follows Zhang, Azad & Hu: each round computes the minimum
// neighbour grandparent with a min.second matrix-vector product, then
// applies stochastic hooking (f[f[u]] ← min(f[f[u]], mngp[u])), aggressive
// hooking (f[u] ← min(f[u], mngp[u])) and shortcutting (f[u] ← f[f[u]]),
// converging when the grandparent vector stabilizes — typically in O(log n)
// rounds rather than O(diameter). A vertex without neighbours gets the
// min monoid's identity, which hooks nothing.
func (ws *CCWorkspace) FastSV(a *grb.Matrix[bool]) ([]int, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, errNotSquare("FastSV", a.NRows(), a.NCols())
	}
	ws.f, ws.gp, ws.mngp = resize(ws.f, n), resize(ws.gp, n), resize(ws.mngp, n)
	f, gp, mngp := ws.f, ws.gp, ws.mngp // parent, grandparent, min neighbour grandparent
	for i := range f {
		f[i] = i
		gp[i] = i
	}
	if n == 0 {
		return f, nil
	}
	semiring := grb.MinSecond[bool, int](math.MaxInt)
	for {
		// mngp[u] = min over u's neighbours j of gp[j].
		if err := grb.MxVFull(semiring, a, gp, mngp); err != nil {
			return nil, err
		}
		// Stochastic hooking: hook u's tree root under the minimum
		// neighbouring grandparent.
		for u, x := range mngp {
			if x < f[f[u]] {
				f[f[u]] = x
			}
		}
		// Aggressive hooking: also pull u itself down.
		for u, x := range mngp {
			if x < f[u] {
				f[u] = x
			}
		}
		// Shortcutting: compress one level.
		for u := range f {
			if f[f[u]] < f[u] {
				f[u] = f[f[u]]
			}
		}
		// Recompute grandparents; converged when unchanged.
		changed := false
		for u := range f {
			ngp := f[f[u]]
			if ngp != gp[u] {
				gp[u] = ngp
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final full compression to canonical roots.
	for u := range f {
		for f[u] != f[f[u]] {
			f[u] = f[f[u]]
		}
	}
	return f, nil
}

// SumSquaredComponentSizes maps a component labelling to Σ (size)², the Q2
// scoring kernel (step 4 of the batch algorithm). Labels are vertex ids,
// as every algorithm here returns them, so it counts sizes in ws's scratch
// indexed by label: O(len(labels) + max label), allocating only to grow
// ws.
func (ws *CCWorkspace) SumSquaredComponentSizes(labels []int) int64 {
	top := -1
	for _, l := range labels {
		top = max(top, l)
	}
	counts := resize(ws.mngp, top+1)
	ws.mngp = counts
	clear(counts)
	for _, l := range labels {
		counts[l]++
	}
	var total int64
	for _, c := range counts {
		total += int64(c) * int64(c)
	}
	return total
}

// resize returns buf with length n, reusing its storage when it is large
// enough.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// CCLabelProp computes connected components by minimum-label propagation:
// each round every vertex adopts the minimum label among itself and its
// neighbours, converging after O(diameter) rounds. It is the simple,
// obviously-correct baseline used to cross-check FastSV and in the CC
// ablation benchmark.
func CCLabelProp(a *grb.Matrix[bool]) ([]int, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, errNotSquare("CCLabelProp", a.NRows(), a.NCols())
	}
	f := make([]int, n)
	for i := range f {
		f[i] = i
	}
	if n == 0 {
		return f, nil
	}
	semiring := grb.MinSecond[bool, int](math.MaxInt)
	for {
		minNbr, err := grb.MxV(semiring, a, grb.VectorFromSlice(f))
		if err != nil {
			return nil, err
		}
		changed := false
		minNbr.Iterate(func(u grb.Index, x int) bool {
			if x < f[u] {
				f[u] = x
				changed = true
			}
			return true
		})
		if !changed {
			return f, nil
		}
	}
}

// CCUnionFind computes connected components by folding the matrix entries
// into a DSU. It is the non-GraphBLAS comparator in the CC ablation: for
// tiny subgraphs (Q2's per-comment induced subgraphs) it avoids all kernel
// overhead.
func CCUnionFind(a *grb.Matrix[bool]) ([]int, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, errNotSquare("CCUnionFind", a.NRows(), a.NCols())
	}
	d := NewDSU(n)
	a.Iterate(func(i, j grb.Index, _ bool) bool {
		d.Union(i, j)
		return true
	})
	return d.Labels(), nil
}
