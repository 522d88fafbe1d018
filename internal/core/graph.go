package core

import (
	"errors"

	"repro/internal/grb"
	"repro/internal/model"
)

// graph is the linear-algebraic representation of the social network used
// by the GraphBLAS engines: boolean adjacency matrices per edge type, in
// the orientations the algorithms read, over the State the engine
// attached from. Each engine builds and maintains only the matrices it
// reads (a nil matrix is one it does not keep):
//
//	rootPost   |posts| × |comments|   Q1Batch; Q1Incremental's Initial (Alg. 1)
//	rootPostT  |comments| × |posts|   Q1Incremental (sparse VxM)
//	likes      |comments| × |users|   Q1Batch, Q2Batch, Q2Incremental;
//	                                  Q1Incremental's Initial
//	likesT     |users| × |comments|   Q2Incremental (friendship probing)
//	friends    |users| × |users|      Q2Batch, Q2Incremental (symmetric)
//
// Matrix indices are State node indices: the State resolved every change
// before the engine sees it, so a graph keeps no id map and has no unknown
// reference to reject. Ids and timestamps are read back through nodes.
//
// Change sets grow the dimensions (|posts′|, |comments′|, |users′|) and add
// entries as pending tuples; whole-matrix kernels assemble lazily while
// row-sparse kernels never do, matching SuiteSparse semantics.
type graph struct {
	nodes      Nodes
	np, nc, nu int

	rootPost  *grb.Matrix[bool]
	rootPostT *grb.Matrix[bool]
	likes     *grb.Matrix[bool]
	likesT    *grb.Matrix[bool]
	friends   *grb.Matrix[bool]
}

// parts selects the matrices a graph keeps.
type parts uint8

const (
	withRootPost parts = 1 << iota
	withRootPostT
	withLikes
	withLikesT
	withFriends
)

// delta reports what one change set added, in the graph's indices at the
// post-update dimensions. It is the input of the incremental algorithms.
type delta struct {
	newPosts    []int    // post indices
	newComments [][2]int // (root post, comment) index pairs
	newLikes    [][2]int // (comment, user) index pairs
	newFriends  [][2]int // (user, user) index pairs

	// Removals (the paper's future-work workload).
	removedLikes   [][2]int // (comment, user) index pairs
	removedFriends [][2]int // (user, user) index pairs
}

// loadGraph builds the parts keep selects from v, a View of the State
// nodes reads (see Engine).
func loadGraph(nodes Nodes, v *model.View, keep parts) (*graph, error) {
	g := &graph{nodes: nodes, np: v.Len(model.KeyPost), nc: v.Len(model.KeyComment), nu: v.Len(model.KeyUser)}
	vn := v.Nodes()
	rpRows, rpCols := tuples(keep&(withRootPost|withRootPostT) != 0, g.nc, func(k int) (int, int) {
		return vn.Root(k), k
	})
	lkRows, lkCols := tuples(keep&(withLikes|withLikesT) != 0, v.Len(model.KeyLike), func(k int) (int, int) {
		u, c := v.Like(k)
		return int(c), int(u)
	})
	frRows, frCols := tuples(keep&withFriends != 0, 2*v.Len(model.KeyFriendship), func(k int) (int, int) {
		a, b := v.Friendship(k / 2)
		if k%2 == 1 {
			a, b = b, a
		}
		return int(a), int(b)
	})
	var err error
	if g.rootPost, err = buildMatrix(keep&withRootPost != 0, g.np, g.nc, rpRows, rpCols); err != nil {
		return nil, err
	}
	if g.rootPostT, err = buildMatrix(keep&withRootPostT != 0, g.nc, g.np, rpCols, rpRows); err != nil {
		return nil, err
	}
	if g.likes, err = buildMatrix(keep&withLikes != 0, g.nc, g.nu, lkRows, lkCols); err != nil {
		return nil, err
	}
	if g.likesT, err = buildMatrix(keep&withLikesT != 0, g.nu, g.nc, lkCols, lkRows); err != nil {
		return nil, err
	}
	if g.friends, err = buildMatrix(keep&withFriends != 0, g.nu, g.nu, frRows, frCols); err != nil {
		return nil, err
	}
	return g, nil
}

// tuples returns the n tuples at(0), …, at(n−1) as row and column lists,
// or nil lists when the matrices they would build are not kept.
func tuples(kept bool, n int, at func(k int) (i, j int)) (rows, cols []grb.Index) {
	if !kept {
		return nil, nil
	}
	rows, cols = make([]grb.Index, n), make([]grb.Index, n)
	for k := range rows {
		rows[k], cols[k] = at(k)
	}
	return rows, cols
}

// buildMatrix builds an nrows × ncols boolean matrix with a true at each
// (rows[k], cols[k]), or returns nil when the matrix is not kept.
func buildMatrix(kept bool, nrows, ncols int, rows, cols []grb.Index) (*grb.Matrix[bool], error) {
	if !kept {
		return nil, nil
	}
	trues := make([]bool, len(rows))
	for i := range trues {
		trues[i] = true
	}
	return grb.MatrixFromTuples(nrows, ncols, rows, cols, trues, nil)
}

// resize grows a kept matrix; a nil one is not kept.
func resize(m *grb.Matrix[bool], nrows, ncols int) error {
	if m == nil {
		return nil
	}
	return m.Resize(nrows, ncols)
}

// setTrue stores a true at (i, j) of a kept matrix; a nil one is not kept.
func setTrue(m *grb.Matrix[bool], i, j int) error {
	if m == nil {
		return nil
	}
	return m.SetElement(i, j, true)
}

// unset removes (i, j) from a kept matrix; a nil one is not kept.
func unset(m *grb.Matrix[bool], i, j int) error {
	if m == nil {
		return nil
	}
	return m.RemoveElement(i, j)
}

// apply ingests one change set's refs: new nodes extend the matrix
// dimensions, new edges land as pending tuples in the kept matrices. It
// returns the delta.
func (g *graph) apply(refs []model.Ref) (*delta, error) {
	d := &delta{}
	for _, r := range refs {
		switch r.Kind {
		case model.KindAddPost:
			g.np++
			d.newPosts = append(d.newPosts, int(r.A))
		case model.KindAddComment:
			g.nc++
		case model.KindAddUser:
			g.nu++
		}
	}
	for _, err := range [...]error{
		resize(g.rootPost, g.np, g.nc), resize(g.rootPostT, g.nc, g.np),
		resize(g.likes, g.nc, g.nu), resize(g.likesT, g.nu, g.nc), resize(g.friends, g.nu, g.nu),
	} {
		if err != nil {
			return nil, err
		}
	}
	// Edges go in once every node of the change set exists.
	for _, r := range refs {
		a, b := int(r.A), int(r.B)
		var err error
		switch r.Kind {
		case model.KindAddComment:
			err = errors.Join(setTrue(g.rootPost, b, a), setTrue(g.rootPostT, a, b))
			d.newComments = append(d.newComments, [2]int{b, a})
		case model.KindAddLike:
			err = errors.Join(setTrue(g.likes, b, a), setTrue(g.likesT, a, b))
			d.newLikes = append(d.newLikes, [2]int{b, a})
		case model.KindAddFriendship:
			err = errors.Join(setTrue(g.friends, a, b), setTrue(g.friends, b, a))
			d.newFriends = append(d.newFriends, [2]int{a, b})
		case model.KindRemoveLike:
			err = errors.Join(unset(g.likes, b, a), unset(g.likesT, a, b))
			d.removedLikes = append(d.removedLikes, [2]int{b, a})
		case model.KindRemoveFriendship:
			err = errors.Join(unset(g.friends, a, b), unset(g.friends, b, a))
			d.removedFriends = append(d.removedFriends, [2]int{a, b})
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}
