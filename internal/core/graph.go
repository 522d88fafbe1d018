package core

import (
	"fmt"

	"repro/internal/grb"
	"repro/internal/model"
)

// graph is the linear-algebraic representation of the social network used
// by the GraphBLAS engines: boolean adjacency matrices per edge type, in
// the orientations the algorithms read, plus dense id↔index maps and
// per-entity timestamps. Each engine builds and maintains only the parts
// it reads (a nil matrix or timestamp slice is one it does not keep):
//
//	rootPost   |posts| × |comments|   Q1Batch; Q1Incremental's Initial (Alg. 1)
//	rootPostT  |comments| × |posts|   Q1Incremental (sparse VxM)
//	likes      |comments| × |users|   Q1Batch, Q2Batch, Q2Incremental;
//	                                  Q1Incremental's Initial
//	likesT     |users| × |comments|   Q2Incremental (friendship probing)
//	friends    |users| × |users|      Q2Batch, Q2Incremental (symmetric)
//	postTS                            Q1Batch, Q1Incremental
//	commentTS                         Q2Batch, Q2Incremental
//
// Every engine keeps all three id maps: a change is resolved in full, so an
// unknown reference is an error whichever parts the engine keeps.
//
// Change sets grow the dimensions (|posts′|, |comments′|, |users′|) and add
// entries as pending tuples; whole-matrix kernels assemble lazily while
// row-sparse kernels never do, matching SuiteSparse semantics.
type graph struct {
	posts    *model.IDMap
	comments *model.IDMap
	users    *model.IDMap

	keep      parts
	postTS    []int64
	commentTS []int64

	rootPost  *grb.Matrix[bool]
	rootPostT *grb.Matrix[bool]
	likes     *grb.Matrix[bool]
	likesT    *grb.Matrix[bool]
	friends   *grb.Matrix[bool]
}

// parts selects the matrices and timestamp slices a graph keeps.
type parts uint8

const (
	withRootPost parts = 1 << iota
	withRootPostT
	withLikes
	withLikesT
	withFriends
	withPostTS
	withCommentTS
)

// delta reports what one change set added, in dense-index terms at the
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

// loadGraph builds the parts keep selects from an initial snapshot. It
// resolves every reference, kept or not.
func loadGraph(s *model.Snapshot, keep parts) (*graph, error) {
	g := &graph{
		posts:    model.NewIDMap(),
		comments: model.NewIDMap(),
		users:    model.NewIDMap(),
		keep:     keep,
	}
	for _, p := range s.Posts {
		g.posts.Add(p.ID)
		if keep&withPostTS != 0 {
			g.postTS = append(g.postTS, p.Timestamp)
		}
	}
	for _, c := range s.Comments {
		g.comments.Add(c.ID)
		if keep&withCommentTS != 0 {
			g.commentTS = append(g.commentTS, c.Timestamp)
		}
	}
	for _, u := range s.Users {
		g.users.Add(u.ID)
	}
	np, nc, nu := g.posts.Len(), g.comments.Len(), g.users.Len()

	keepRP := keep&(withRootPost|withRootPostT) != 0
	rpRows, rpCols := tupleRoom(keepRP, len(s.Comments))
	for _, c := range s.Comments {
		pi, ok := g.posts.Index(c.PostID)
		if !ok {
			return nil, fmt.Errorf("core: comment %d roots at unknown post %d", c.ID, c.PostID)
		}
		if keepRP {
			rpRows = append(rpRows, pi)
			rpCols = append(rpCols, g.comments.MustIndex(c.ID))
		}
	}
	var err error
	if g.rootPost, err = buildMatrix(keep&withRootPost != 0, np, nc, rpRows, rpCols); err != nil {
		return nil, err
	}
	if g.rootPostT, err = buildMatrix(keep&withRootPostT != 0, nc, np, rpCols, rpRows); err != nil {
		return nil, err
	}

	keepLk := keep&(withLikes|withLikesT) != 0
	lkRows, lkCols := tupleRoom(keepLk, len(s.Likes))
	for _, l := range s.Likes {
		ci, ok := g.comments.Index(l.CommentID)
		if !ok {
			return nil, fmt.Errorf("core: like references unknown comment %d", l.CommentID)
		}
		ui, ok := g.users.Index(l.UserID)
		if !ok {
			return nil, fmt.Errorf("core: like references unknown user %d", l.UserID)
		}
		if keepLk {
			lkRows = append(lkRows, ci)
			lkCols = append(lkCols, ui)
		}
	}
	if g.likes, err = buildMatrix(keep&withLikes != 0, nc, nu, lkRows, lkCols); err != nil {
		return nil, err
	}
	if g.likesT, err = buildMatrix(keep&withLikesT != 0, nu, nc, lkCols, lkRows); err != nil {
		return nil, err
	}

	frRows, frCols := tupleRoom(keep&withFriends != 0, 2*len(s.Friendships))
	for _, f := range s.Friendships {
		a, ok := g.users.Index(f.User1)
		if !ok {
			return nil, fmt.Errorf("core: friendship references unknown user %d", f.User1)
		}
		b, ok := g.users.Index(f.User2)
		if !ok {
			return nil, fmt.Errorf("core: friendship references unknown user %d", f.User2)
		}
		if keep&withFriends != 0 {
			frRows = append(frRows, a, b)
			frCols = append(frCols, b, a)
		}
	}
	if g.friends, err = buildMatrix(keep&withFriends != 0, nu, nu, frRows, frCols); err != nil {
		return nil, err
	}
	return g, nil
}

// tupleRoom returns empty row and column lists with room for n tuples, or
// nil lists when the matrices they would build are not kept.
func tupleRoom(kept bool, n int) (rows, cols []grb.Index) {
	if !kept {
		return nil, nil
	}
	return make([]grb.Index, 0, n), make([]grb.Index, 0, n)
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

// apply ingests one change set: new entities extend the id maps and matrix
// dimensions, new edges land as pending tuples in the kept matrices. It
// returns the delta in dense indices.
func (g *graph) apply(cs *model.ChangeSet) (*delta, error) {
	d := &delta{}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddPost:
			idx := g.posts.Add(ch.Post.ID)
			if g.keep&withPostTS != 0 && idx == len(g.postTS) {
				g.postTS = append(g.postTS, ch.Post.Timestamp)
			}
			d.newPosts = append(d.newPosts, idx)
		case model.KindAddUser:
			g.users.Add(ch.User.ID)
		case model.KindAddComment:
			idx := g.comments.Add(ch.Comment.ID)
			if g.keep&withCommentTS != 0 && idx == len(g.commentTS) {
				g.commentTS = append(g.commentTS, ch.Comment.Timestamp)
			}
		case model.KindAddFriendship, model.KindAddLike,
			model.KindRemoveFriendship, model.KindRemoveLike:
			// Edges are resolved in a second pass, after all nodes of the
			// change set exist.
		default:
			return nil, fmt.Errorf("core: unknown change kind %d", ch.Kind)
		}
	}
	np, nc, nu := g.posts.Len(), g.comments.Len(), g.users.Len()
	for _, err := range [...]error{
		resize(g.rootPost, np, nc), resize(g.rootPostT, nc, np),
		resize(g.likes, nc, nu), resize(g.likesT, nu, nc), resize(g.friends, nu, nu),
	} {
		if err != nil {
			return nil, err
		}
	}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddComment:
			pi, ok := g.posts.Index(ch.Comment.PostID)
			if !ok {
				return nil, fmt.Errorf("core: comment %d roots at unknown post %d", ch.Comment.ID, ch.Comment.PostID)
			}
			ci := g.comments.MustIndex(ch.Comment.ID)
			if err := setTrue(g.rootPost, pi, ci); err != nil {
				return nil, err
			}
			if err := setTrue(g.rootPostT, ci, pi); err != nil {
				return nil, err
			}
			d.newComments = append(d.newComments, [2]int{pi, ci})
		case model.KindAddLike:
			ci, ok := g.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := g.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown user %d", ch.Like.UserID)
			}
			if err := setTrue(g.likes, ci, ui); err != nil {
				return nil, err
			}
			if err := setTrue(g.likesT, ui, ci); err != nil {
				return nil, err
			}
			d.newLikes = append(d.newLikes, [2]int{ci, ui})
		case model.KindAddFriendship:
			a, ok := g.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User1)
			}
			b, ok := g.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User2)
			}
			if err := setTrue(g.friends, a, b); err != nil {
				return nil, err
			}
			if err := setTrue(g.friends, b, a); err != nil {
				return nil, err
			}
			d.newFriends = append(d.newFriends, [2]int{a, b})
		case model.KindRemoveLike:
			ci, ok := g.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := g.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown user %d", ch.Like.UserID)
			}
			if err := unset(g.likes, ci, ui); err != nil {
				return nil, err
			}
			if err := unset(g.likesT, ui, ci); err != nil {
				return nil, err
			}
			d.removedLikes = append(d.removedLikes, [2]int{ci, ui})
		case model.KindRemoveFriendship:
			a, ok := g.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User1)
			}
			b, ok := g.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User2)
			}
			if err := unset(g.friends, a, b); err != nil {
				return nil, err
			}
			if err := unset(g.friends, b, a); err != nil {
				return nil, err
			}
			d.removedFriends = append(d.removedFriends, [2]int{a, b})
		}
	}
	return d, nil
}
