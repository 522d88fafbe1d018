package core

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/grb"
	"repro/internal/lagraph"
	"repro/internal/model"
)

// q2Scorer is one worker's scratch for scoring comments: the liker row,
// the inverse index over users that extraction marks and clears, the
// extracted subgraph and FastSV's arrays. Scoring a comment allocates only
// when the comment is larger than every one the scorer has scored before,
// or when the user dimension has grown.
type q2Scorer struct {
	likers  []grb.Index
	pos     []int32 // all zero between calls
	sub     grb.Matrix[bool]
	cc      lagraph.CCWorkspace
	entries int // subgraph entries scored since q2ScoreAll started
}

// score computes one comment's score (Fig. 4b, steps 1–4 of the batch
// algorithm): collect the comment's likers from the Likes matrix, extract
// the friendship subgraph they induce, find its connected components with
// FastSV, and sum the squared component sizes. Comments nobody likes score
// 0.
func (w *q2Scorer) score(likes, friends *grb.Matrix[bool], ci int) (int64, error) {
	w.likers = w.likers[:0]
	if err := likes.ForRow(ci, func(u grb.Index, _ bool) { w.likers = append(w.likers, u) }); err != nil {
		return 0, err
	}
	if len(w.likers) == 0 {
		return 0, nil
	}
	if n := friends.NCols(); len(w.pos) < n {
		w.pos = make([]int32, n+n/8) // room for users added later
	}
	if err := grb.ExtractSubmatrix(&w.sub, friends, w.likers, w.likers, w.pos); err != nil {
		return 0, err
	}
	w.entries += w.sub.NVals()
	labels, err := w.cc.FastSV(&w.sub)
	if err != nil {
		return 0, err
	}
	return w.cc.SumSquaredComponentSizes(labels), nil
}

// q2ScoreAll scores the given comments in parallel at comment granularity
// (the paper's OpenMP strategy), one goroutine per scorer, into the dense
// slice scores, which must have room for every comment index. It returns
// the number of entries of the induced subgraphs it extracted: the work
// Q2's cost model counts.
func q2ScoreAll(likes, friends *grb.Matrix[bool], commentIdx []int, scores []int64, scorers []q2Scorer) (int, error) {
	var mu sync.Mutex
	var firstErr error
	for k := range scorers {
		scorers[k].entries = 0
	}
	grb.ParallelItems(len(commentIdx), len(scorers), func(w, k int) {
		ci := commentIdx[k]
		score, err := scorers[w].score(likes, friends, ci)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		scores[ci] = score
	})
	entries := 0
	for k := range scorers {
		entries += scorers[k].entries
	}
	return entries, firstErr
}

// scorersFor returns scorers when it holds n of them, else n new ones: a
// change of grb.Threads() costs one regrowth of the buffers.
func scorersFor(scorers []q2Scorer, n int) []q2Scorer {
	if len(scorers) != n {
		return make([]q2Scorer, n)
	}
	return scorers
}

// q2TopK ranks every comment by its dense score (the batch engine's full
// pass).
func q2TopK(g *graph, scores []int64) Result {
	t := NewTopK(TopK)
	for ci, score := range scores {
		t.Consider(commentEntry(g.nodes, ci, score))
	}
	return t.Result()
}

// Q2Batch evaluates Q2 from scratch on every step.
type Q2Batch struct {
	standalone
	g       *graph
	scorers []q2Scorer
}

// NewQ2Batch returns the batch Q2 engine.
func NewQ2Batch() *Q2Batch {
	s := &Q2Batch{}
	s.self = s
	return s
}

// Name implements Solution.
func (*Q2Batch) Name() string { return "GraphBLAS Batch" }

// Query implements Solution.
func (*Q2Batch) Query() string { return "Q2" }

// Attach implements Engine.
func (s *Q2Batch) Attach(nodes Nodes, v *model.View) error {
	g, err := loadGraph(nodes, v, withLikes|withFriends)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution.
func (s *Q2Batch) Initial() (Result, error) { return s.evaluate() }

// UpdateRefs implements Engine: apply the change set, then fully
// recompute.
func (s *Q2Batch) UpdateRefs(refs []model.Ref) (Result, error) {
	if _, err := s.g.apply(refs); err != nil {
		return nil, err
	}
	return s.evaluate()
}

func (s *Q2Batch) evaluate() (Result, error) {
	// Batch semantics: assemble up front so the per-comment workers read
	// plain CSR rows.
	s.g.likes.Wait()
	s.g.friends.Wait()
	nc := s.g.nc
	scores := make([]int64, nc)
	s.scorers = scorersFor(s.scorers, grb.Threads())
	if _, err := q2ScoreAll(s.g.likes, s.g.friends, denseKeys(nc), scores, s.scorers); err != nil {
		return nil, err
	}
	return q2TopK(s.g, scores), nil
}

// Q2Incremental evaluates Q2 fully once, then on each update recomputes
// only the comments the change set can affect (Fig. 4b, bottom):
//
//  1. new comments,
//  2. comments that received a new like,
//  3. comments where a new friendship connects two users who both like the
//     comment — detected per new friendship by intersecting the two users'
//     rows of Likes′ᵀ (the row-merge equivalent of the paper's
//     NewFriends-incidence-matrix product AC = Likes′ ⊕.⊗ NewFriends
//     followed by GxB_select(AC = 2); see affectedByFriendshipsIncidence
//     for the literal formulation, kept for the ablation benchmark).
//
// Affected comments are re-scored with the batch kernel into the maintained
// score vector and re-ranked in a RankHeap over every comment, so the
// top-3 costs O(|affected| log |comments|) whether the change set adds or
// removes edges. Re-scoring a comment costs its induced subgraph: its
// likers, their friend rows (or, for a friend row longer than the liker
// list, one probe per liker) and FastSV's rounds over the subgraph.
//
// Initial scores every comment on runtime.GOMAXPROCS(0) workers, because
// start-up reads the whole graph anyway; Update re-scores on grb.Threads()
// workers (one in the server, ttcrun's -threads otherwise).
type Q2Incremental struct {
	standalone
	g       *graph
	scores  []int64                  // dense by comment index
	rank    RankHeap[Entry, byEntry] // by comment index
	prev    Result
	scorers []q2Scorer // Update's, one per grb.Threads() worker

	// subgraphEntries counts the entries of the induced subgraphs Update
	// has extracted, summed over every commit: the work Q2's cost model
	// charges a change set.
	subgraphEntries int64

	// useIncidence switches affected-comment detection to the literal
	// incidence-matrix formulation of the paper (assembles Likes′ᵀ).
	useIncidence bool

	// Update's affected set, its index list and one Likes′ᵀ row, reused
	// across commits.
	affected map[int]struct{}
	idxs     []int
	row      []grb.Index
}

// NewQ2Incremental returns the incremental Q2 engine.
func NewQ2Incremental() *Q2Incremental {
	s := &Q2Incremental{}
	s.self = s
	return s
}

// NewQ2IncrementalIncidence returns the incremental Q2 engine using the
// paper's literal incidence-matrix affected-set detection (ablation).
func NewQ2IncrementalIncidence() *Q2Incremental {
	s := NewQ2Incremental()
	s.useIncidence = true
	return s
}

// Name implements Solution.
func (s *Q2Incremental) Name() string {
	if s.useIncidence {
		return "GraphBLAS Incremental (incidence)"
	}
	return "GraphBLAS Incremental"
}

// Query implements Solution.
func (*Q2Incremental) Query() string { return "Q2" }

// Attach implements Engine: Likes′ᵀ serves the affected-comment
// detection, Likes and Friends the re-scoring.
func (s *Q2Incremental) Attach(nodes Nodes, v *model.View) error {
	g, err := loadGraph(nodes, v, withLikes|withLikesT|withFriends)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution: full evaluation seeding the score state.
func (s *Q2Incremental) Initial() (Result, error) {
	s.g.likes.Wait()
	s.g.friends.Wait()
	nc := s.g.nc
	all := denseKeys(nc)
	s.scores = make([]int64, nc)
	// Start-up's scorers go with it; Update keeps its own.
	scorers := make([]q2Scorer, runtime.GOMAXPROCS(0))
	if _, err := q2ScoreAll(s.g.likes, s.g.friends, all, s.scores, scorers); err != nil {
		return nil, err
	}
	rankAll(&s.rank, nc, s.entry)
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}

// entry is comment ci's ranking entry at its maintained score.
func (s *Q2Incremental) entry(ci int) Entry { return commentEntry(s.g.nodes, ci, s.scores[ci]) }

// UpdateRefs implements Engine with incremental maintenance.
func (s *Q2Incremental) UpdateRefs(refs []model.Ref) (Result, error) {
	d, err := s.g.apply(refs)
	if err != nil {
		return nil, err
	}
	nc := s.g.nc
	for len(s.scores) < nc {
		s.scores = append(s.scores, 0)
	}

	// Step 5: collect the comments that might be affected.
	if s.affected == nil {
		s.affected = make(map[int]struct{})
	}
	affected := s.affected
	clear(affected)
	for _, pc := range d.newComments {
		affected[pc[1]] = struct{}{}
	}
	for _, cu := range d.newLikes {
		affected[cu[0]] = struct{}{}
	}
	for _, cu := range d.removedLikes {
		affected[cu[0]] = struct{}{}
	}
	// Friendship changes (added or removed) affect the comments both
	// endpoints like; removed likes are covered above even when the same
	// change set also removed the friendship.
	if s.useIncidence {
		byFriends, err := affectedByFriendshipsIncidence(s.g, append(append([][2]int{}, d.newFriends...), d.removedFriends...))
		if err != nil {
			return nil, err
		}
		for _, ci := range byFriends {
			affected[ci] = struct{}{}
		}
	} else {
		for _, pairs := range [2][][2]int{d.newFriends, d.removedFriends} {
			if s.row, err = affectedByFriendshipsRowMerge(s.g, pairs, s.row, affected); err != nil {
				return nil, err
			}
		}
	}

	// Steps 6–9: re-score the affected comments with the batch kernel.
	idxs := s.idxs[:0]
	for ci := range affected {
		idxs = append(idxs, ci)
	}
	s.idxs = idxs
	s.scorers = scorersFor(s.scorers, grb.Threads())
	entries, err := q2ScoreAll(s.g.likes, s.g.friends, idxs, s.scores, s.scorers)
	if err != nil {
		return nil, err
	}
	s.subgraphEntries += int64(entries)

	for _, ci := range idxs {
		s.rank.Set(Slot[Entry]{Val: s.entry(ci), Key: int32(ci)})
	}
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}

// affectedByFriendshipsRowMerge adds to affected, for each friendship
// (u1, u2), the comments liked by both users, by intersecting the two
// users' rows of Likes′ᵀ in place: the shorter row is copied into row, a
// buffer the caller reuses, then the longer row is merged against it or,
// when probing costs less than a scan, probed at the copied comments.
// Only those two rows are read (pending tuples merge on the fly), so the
// cost is O(min(d₁, d₂) + min(max(d₁, d₂), min(d₁, d₂) · log max(d₁, d₂)))
// per friendship for row lengths d₁ and d₂, and nothing is allocated once
// row has grown. It returns row for reuse.
func affectedByFriendshipsRowMerge(g *graph, pairs [][2]int, row []grb.Index, affected map[int]struct{}) ([]grb.Index, error) {
	m := g.likesT
	for _, uv := range pairs {
		short, long := uv[0], uv[1]
		if m.RowNValsBound(long) < m.RowNValsBound(short) {
			short, long = long, short
		}
		row = row[:0]
		if err := m.ForRow(short, func(ci grb.Index, _ bool) { row = append(row, ci) }); err != nil {
			return row, err
		}
		if len(row) == 0 {
			continue
		}
		if n := m.RowNValsBound(long); len(row)*bits.Len(uint(n)) < n {
			for _, ci := range row {
				_, ok, err := m.GetElement(long, ci)
				if err != nil {
					return row, err
				}
				if ok {
					affected[ci] = struct{}{}
				}
			}
			continue
		}
		k := 0
		err := m.ForRow(long, func(ci grb.Index, _ bool) {
			for k < len(row) && row[k] < ci {
				k++
			}
			if k < len(row) && row[k] == ci {
				affected[ci] = struct{}{}
			}
		})
		if err != nil {
			return row, err
		}
	}
	return row, nil
}

// affectedByFriendshipsIncidence is the paper's literal formulation
// (Fig. 4b steps 1–4): build the NewFriends incidence matrix with one
// column per new friendship, compute AC = Likes′ ⊕.⊗ NewFriends — realized
// as ACᵀ = NewFriendsᵀ ⊕.⊗ Likes′ᵀ so Gustavson's algorithm merges two
// liker rows per friendship — keep the 2-valued cells (both endpoints like
// the comment), reduce with logical or, and extract the comment ids.
func affectedByFriendshipsIncidence(g *graph, newFriends [][2]int) ([]int, error) {
	if len(newFriends) == 0 {
		return nil, nil
	}
	nf := grb.NewMatrix[bool](len(newFriends), g.nu)
	for f, uv := range newFriends {
		if err := nf.SetElement(f, uv[0], true); err != nil {
			return nil, err
		}
		if err := nf.SetElement(f, uv[1], true); err != nil {
			return nil, err
		}
	}
	acT, err := grb.MxM(grb.PlusPair[bool, bool](), nf, g.likesT)
	if err != nil {
		return nil, err
	}
	both := grb.SelectM(func(_, _ grb.Index, v int) bool { return v == 2 }, acT)
	ac, err := grb.ReduceCols(grb.OrMonoid(), func(int) bool { return true }, both)
	if err != nil {
		return nil, err
	}
	ind, _ := ac.ExtractTuples()
	return ind, nil
}
