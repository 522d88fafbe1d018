package core

import (
	"repro/internal/grb"
	"repro/internal/model"
)

// q1Scores is Alg. 1 of the paper: the batch Q1 scoring kernel.
//
//	sum           ← [⊕_j RootPost(:,j)]        row-wise comment count
//	repliesScores ← 10 × sum                   GrB_apply
//	likesScore    ← RootPost ⊕.⊗ likesCount    plus_second mxv
//	scores        ← repliesScores ⊕ likesScore eWiseAdd
func q1Scores(rootPost *grb.Matrix[bool], likesCount *grb.Vector[int64]) (*grb.Vector[int64], error) {
	sum, err := grb.ReduceRows(grb.PlusMonoid[int64](), grb.One[bool, int64], rootPost)
	if err != nil {
		return nil, err
	}
	repliesScores := grb.ApplyV(func(x int64) int64 { return 10 * x }, sum)
	likesScore, err := grb.MxV(grb.PlusSecond[bool, int64](), rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	return grb.EWiseAddV(grb.Plus[int64], repliesScores, likesScore)
}

// likesPerComment computes likesCount ∈ N^|comments|, the row-wise like
// count of the Likes matrix.
func likesPerComment(likes *grb.Matrix[bool]) (*grb.Vector[int64], error) {
	return grb.ReduceRows(grb.PlusMonoid[int64](), grb.One[bool, int64], likes)
}

// q1TopK ranks every post by its score (absent entries score 0).
func q1TopK(g *graph, scores *grb.Vector[int64]) Result {
	t := NewTopK(TopK)
	dense := make([]int64, g.np)
	scores.Iterate(func(i grb.Index, x int64) bool {
		dense[i] = x
		return true
	})
	for i := 0; i < g.np; i++ {
		t.Consider(postEntry(g.nodes, i, dense[i]))
	}
	return t.Result()
}

// Q1Batch evaluates Q1 from scratch on every step.
type Q1Batch struct {
	standalone
	g *graph
}

// NewQ1Batch returns the batch Q1 engine ("GraphBLAS Batch" in the paper).
func NewQ1Batch() *Q1Batch {
	s := &Q1Batch{}
	s.self = s
	return s
}

// Name implements Solution.
func (*Q1Batch) Name() string { return "GraphBLAS Batch" }

// Query implements Solution.
func (*Q1Batch) Query() string { return "Q1" }

// Attach implements Engine: the batch engine keeps the two matrices of
// Alg. 1.
func (s *Q1Batch) Attach(nodes Nodes, v *model.View) error {
	g, err := loadGraph(nodes, v, withRootPost|withLikes)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution.
func (s *Q1Batch) Initial() (Result, error) { return s.evaluate() }

// UpdateRefs implements Engine: apply the change set, then fully
// recompute.
func (s *Q1Batch) UpdateRefs(refs []model.Ref) (Result, error) {
	if _, err := s.g.apply(refs); err != nil {
		return nil, err
	}
	return s.evaluate()
}

func (s *Q1Batch) evaluate() (Result, error) {
	likesCount, err := likesPerComment(s.g.likes)
	if err != nil {
		return nil, err
	}
	scores, err := q1Scores(s.g.rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	return q1TopK(s.g, scores), nil
}

// Q1Incremental evaluates Q1 once, then maintains the score vector with
// Alg. 2 of the paper:
//
//	sum            ← [⊕_j ΔRootPost(:,j)]          # of new comments
//	repliesScores⁺ ← 10 × sum
//	likesScore⁺    ← RootPost′ ⊕.⊗ likesCount⁺     (computed as the sparse
//	                 likesCount⁺ᵀ ⊕.⊗ RootPost′ᵀ so only changed comments'
//	                 rows are touched)
//	scores⁺        ← repliesScores⁺ ⊕ likesScore⁺
//	scores′        ← scores ⊕ scores⁺           (in place: GrB_assign of
//	                 scores⁺ into scores with a plus accumulator)
//	Δscores⟨scores⁺⟩ ← scores′                  (read as scores⁺'s pattern)
//
// Every step allocates in proportion to the change: ΔRootPost's row sums
// are built from the new comments alone, VxM's scratch is bounded by its
// products, and the score vector is never copied.
//
// The top-3 answer is read from a RankHeap over every post, updated only
// for the posts in scores⁺'s pattern and the new posts, so ranking costs
// O(|Δscores| log |posts|) whether the change set adds or removes edges.
type Q1Incremental struct {
	standalone
	g      *graph
	scores *grb.Vector[int64]
	rank   RankHeap[Entry, byEntry] // by post index
	prev   Result
}

// NewQ1Incremental returns the incremental Q1 engine ("GraphBLAS
// Incremental" in the paper).
func NewQ1Incremental() *Q1Incremental {
	s := &Q1Incremental{}
	s.self = s
	return s
}

// Name implements Solution.
func (*Q1Incremental) Name() string { return "GraphBLAS Incremental" }

// Query implements Solution.
func (*Q1Incremental) Query() string { return "Q1" }

// Attach implements Engine. Update reads only RootPostᵀ, but Initial's
// Alg. 1 also needs RootPost and Likes; Initial releases those two.
func (s *Q1Incremental) Attach(nodes Nodes, v *model.View) error {
	g, err := loadGraph(nodes, v, withRootPost|withRootPostT|withLikes)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution: the first evaluation is a full one; it also
// seeds the maintained score vector and fills the rank heap. Alg. 2 never
// reads RootPost or Likes, so they are released here: likes enter Update
// only as the change set's like-count deltas.
func (s *Q1Incremental) Initial() (Result, error) {
	likesCount, err := likesPerComment(s.g.likes)
	if err != nil {
		return nil, err
	}
	scores, err := q1Scores(s.g.rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	s.g.rootPost, s.g.likes = nil, nil
	s.scores = scores
	rankAll(&s.rank, s.g.np, s.postEntry)
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}

// postEntry is post i's ranking entry at its maintained score (absent
// entries score 0).
func (s *Q1Incremental) postEntry(i int) Entry {
	score, _, _ := s.scores.GetElement(i)
	return postEntry(s.g.nodes, i, score)
}

// UpdateRefs implements Engine with the incremental maintenance of Alg. 2.
func (s *Q1Incremental) UpdateRefs(refs []model.Ref) (Result, error) {
	d, err := s.g.apply(refs)
	if err != nil {
		return nil, err
	}
	// Scores change only with posts, comments and likes: a change set of
	// users and friendships alone leaves the answer as it was.
	if len(d.newPosts)+len(d.newComments)+len(d.newLikes)+len(d.removedLikes) == 0 {
		return s.prev, nil
	}
	np, nc := s.g.np, s.g.nc
	if err := s.scores.Resize(np); err != nil {
		return nil, err
	}

	// repliesScores⁺ = 10 × [⊕_j ΔRootPost(:,j)]: ΔRootPost has one entry
	// per new comment at (root post, comment), so its row sums are built
	// directly from the new comments' root posts (GrB_build with a plus
	// dup), in O(Δ) rather than over a |posts|-row matrix.
	deltaRows := make([]grb.Index, 0, len(d.newComments))
	ones := make([]int64, 0, len(d.newComments))
	for _, pc := range d.newComments {
		deltaRows = append(deltaRows, pc[0])
		ones = append(ones, 1)
	}
	sum, err := grb.VectorFromTuples(np, deltaRows, ones, grb.Plus[int64])
	if err != nil {
		return nil, err
	}
	repliesPlus := grb.ApplyV(func(x int64) int64 { return 10 * x }, sum)

	// likesScore⁺ = RootPost′ ⊕.⊗ likesCount⁺, evaluated in transposed
	// orientation (likesCount⁺ᵀ ⊕.⊗ RootPost′ᵀ) so that only the rows of
	// the comments that actually received likes are read — O(Δ) work,
	// untouched pending tuples stay pending.
	lcInd := make([]grb.Index, 0, len(d.newLikes)+len(d.removedLikes))
	lcVal := make([]int64, 0, cap(lcInd))
	for _, cu := range d.newLikes {
		lcInd = append(lcInd, cu[0])
		lcVal = append(lcVal, 1)
	}
	// Removals (future-work workload) enter the same delta pipeline as
	// negative like counts.
	for _, cu := range d.removedLikes {
		lcInd = append(lcInd, cu[0])
		lcVal = append(lcVal, -1)
	}
	likesCountPlus, err := grb.VectorFromTuples(nc, lcInd, lcVal, grb.Plus[int64])
	if err != nil {
		return nil, err
	}
	likesPlus, err := grb.VxM(grb.PlusFirst[int64, bool](), likesCountPlus, s.g.rootPostT)
	if err != nil {
		return nil, err
	}

	scoresPlus, err := grb.EWiseAddV(grb.Plus[int64], repliesPlus, likesPlus)
	if err != nil {
		return nil, err
	}
	// scores′ = scores ⊕ scores⁺, accumulated in place over GrB_ALL. The
	// changed posts Δscores are exactly scores⁺'s pattern.
	if err := grb.AssignV(s.scores, scoresPlus, grb.Plus[int64]); err != nil {
		return nil, err
	}

	scoresPlus.Iterate(func(i grb.Index, _ int64) bool {
		s.rank.Set(Slot[Entry]{Val: s.postEntry(i), Key: int32(i)})
		return true
	})
	for _, pi := range d.newPosts {
		s.rank.Set(Slot[Entry]{Val: s.postEntry(pi), Key: int32(pi)})
	}
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}
