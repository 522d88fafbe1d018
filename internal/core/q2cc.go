package core

import (
	"fmt"

	"repro/internal/lagraph"
	"repro/internal/model"
)

// Q2IncrementalCC realizes the paper's future-work item (2): instead of
// re-running connected components over each affected comment's induced
// subgraph, it maintains the components themselves incrementally (in the
// spirit of Ediger et al., "Tracking structure of streaming social
// networks"). The case study's update stream is insert-only, so components
// only ever merge and a disjoint-set union per comment tracks them exactly:
//
//   - a new like adds the user to the comment's DSU and unions it with its
//     friends already present — O(deg_friends(u) · α);
//   - a new friendship unions the endpoints in every comment both users
//     like — O(min(deg_likes(u1), deg_likes(u2))) membership probes plus
//     unions;
//   - each union updates the comment's Σ sizes² score in O(1) via
//     (s₁+s₂)² − s₁² − s₂².
//
// Scores therefore never need recomputation, at the price of per-comment
// DSU state (ca. one integer pair per like). The comments a change set
// touched are re-ranked in a RankIndex over every comment, so the
// top-3 costs O(|touched| log |comments|) whether the change set adds or
// removes edges.
type Q2IncrementalCC struct {
	// Entity bookkeeping (same dense index spaces as the matrix engines).
	posts    *model.IDMap // not read for scoring; backs Stats().Posts
	comments *model.IDMap
	users    *model.IDMap

	commentTS []int64

	friends   [][]int // user index → friend user indices
	userLikes [][]int // user index → liked comment indices
	// friendEdges and likeEdges are the total lengths of friends and
	// userLikes, kept current by every handler so Stats is O(1).
	friendEdges, likeEdges int

	cc   []commentComponents
	rank RankIndex // by comment index
	prev Result
}

// commentComponents is the per-comment incremental component state.
type commentComponents struct {
	dsu   *lagraph.DSU
	node  map[int]int // user index → DSU element
	score int64
}

// NewQ2IncrementalCC returns the incremental-connected-components Q2
// engine.
func NewQ2IncrementalCC() *Q2IncrementalCC { return &Q2IncrementalCC{} }

// Name implements Solution.
func (*Q2IncrementalCC) Name() string { return "GraphBLAS Incremental (incremental CC)" }

// Query implements Solution.
func (*Q2IncrementalCC) Query() string { return "Q2" }

// Load implements Solution by replaying the snapshot through the same event
// handlers the update phase uses: every co-liking friend pair is observed
// by whichever of its two events arrives second, so the final partition is
// order-independent.
func (s *Q2IncrementalCC) Load(snap *model.Snapshot) error {
	s.posts = model.NewIDMap()
	s.comments = model.NewIDMap()
	s.users = model.NewIDMap()
	for _, p := range snap.Posts {
		s.posts.Add(p.ID)
	}
	for _, c := range snap.Comments {
		s.comments.Add(c.ID)
		s.commentTS = append(s.commentTS, c.Timestamp)
		s.cc = append(s.cc, newCommentComponents())
	}
	for _, u := range snap.Users {
		s.users.Add(u.ID)
		s.friends = append(s.friends, nil)
		s.userLikes = append(s.userLikes, nil)
	}
	for _, l := range snap.Likes {
		ci, ok := s.comments.Index(l.CommentID)
		if !ok {
			return fmt.Errorf("core: like references unknown comment %d", l.CommentID)
		}
		ui, ok := s.users.Index(l.UserID)
		if !ok {
			return fmt.Errorf("core: like references unknown user %d", l.UserID)
		}
		s.onLike(ci, ui)
	}
	for _, f := range snap.Friendships {
		a, ok := s.users.Index(f.User1)
		if !ok {
			return fmt.Errorf("core: friendship references unknown user %d", f.User1)
		}
		b, ok := s.users.Index(f.User2)
		if !ok {
			return fmt.Errorf("core: friendship references unknown user %d", f.User2)
		}
		s.onFriendship(a, b)
	}
	return nil
}

func newCommentComponents() commentComponents {
	return commentComponents{dsu: lagraph.NewDSU(0), node: make(map[int]int)}
}

// onLike ingests a likes edge (comment ci ← user ui).
func (s *Q2IncrementalCC) onLike(ci, ui int) {
	cc := &s.cc[ci]
	if _, dup := cc.node[ui]; dup {
		return
	}
	id := cc.dsu.Add()
	cc.node[ui] = id
	cc.score++ // new singleton: +1²
	for _, f := range s.friends[ui] {
		if fid, ok := cc.node[f]; ok {
			s.unionScored(cc, id, fid)
		}
	}
	s.userLikes[ui] = append(s.userLikes[ui], ci)
	s.likeEdges++
}

// onFriendship ingests an undirected friends edge.
func (s *Q2IncrementalCC) onFriendship(a, b int) {
	// Union the endpoints in every comment both users like.
	s.forCoLiked(a, b, func(ci int) {
		cc := &s.cc[ci]
		s.unionScored(cc, cc.node[a], cc.node[b])
	})
	s.friends[a] = append(s.friends[a], b)
	s.friends[b] = append(s.friends[b], a)
	s.friendEdges += 2
}

// forCoLiked calls f for every comment both users like: it walks the like
// list of the user with fewer likes and probes each comment's component
// map for the other user — O(min(likes(a), likes(b))), no allocation, so a
// hub's long like list is never scanned for a rare liker's friendship.
func (s *Q2IncrementalCC) forCoLiked(a, b int, f func(ci int)) {
	if len(s.userLikes[b]) < len(s.userLikes[a]) {
		a, b = b, a
	}
	for _, ci := range s.userLikes[a] {
		if _, ok := s.cc[ci].node[b]; ok {
			f(ci)
		}
	}
}

// onUnlike ingests a like removal: drop the user from the comment's
// component state and rebuild it (a DSU cannot split, so removals
// re-derive the comment from current adjacency — still local to one
// comment, unlike a full Q2 recomputation).
func (s *Q2IncrementalCC) onUnlike(ci, ui int) {
	cc := &s.cc[ci]
	if _, ok := cc.node[ui]; !ok {
		return
	}
	delete(cc.node, ui)
	likes := s.userLikes[ui]
	for k, c := range likes {
		if c == ci {
			s.userLikes[ui] = append(likes[:k], likes[k+1:]...)
			s.likeEdges--
			break
		}
	}
	s.rebuildComment(ci)
}

// onUnfriend ingests a friendship removal: drop the adjacency and rebuild
// every comment both users still like (the only comments whose components
// the edge could have been holding together).
func (s *Q2IncrementalCC) onUnfriend(a, b int) []int {
	removeFrom := func(list []int, x int) []int {
		for k, v := range list {
			if v == x {
				s.friendEdges--
				return append(list[:k], list[k+1:]...)
			}
		}
		return list
	}
	s.friends[a] = removeFrom(s.friends[a], b)
	s.friends[b] = removeFrom(s.friends[b], a)
	var rebuilt []int
	s.forCoLiked(a, b, func(ci int) {
		s.rebuildComment(ci)
		rebuilt = append(rebuilt, ci)
	})
	return rebuilt
}

// rebuildComment re-derives one comment's DSU and score from the current
// liker set and friendship adjacency.
func (s *Q2IncrementalCC) rebuildComment(ci int) {
	cc := &s.cc[ci]
	users := make([]int, 0, len(cc.node))
	for u := range cc.node {
		users = append(users, u)
	}
	cc.dsu = lagraph.NewDSU(len(users))
	newNode := make(map[int]int, len(users))
	for id, u := range users {
		newNode[u] = id
	}
	cc.node = newNode
	for _, u := range users {
		for _, f := range s.friends[u] {
			if fid, ok := newNode[f]; ok {
				cc.dsu.Union(newNode[u], fid)
			}
		}
	}
	cc.score = cc.dsu.SumSquaredComponentSizes()
}

// unionScored merges two DSU elements and updates the comment score by
// (s₁+s₂)² − s₁² − s₂².
func (s *Q2IncrementalCC) unionScored(cc *commentComponents, x, y int) {
	rx, ry := cc.dsu.Find(x), cc.dsu.Find(y)
	if rx == ry {
		return
	}
	s1 := int64(cc.dsu.ComponentSize(rx))
	s2 := int64(cc.dsu.ComponentSize(ry))
	cc.dsu.Union(rx, ry)
	cc.score += (s1+s2)*(s1+s2) - s1*s1 - s2*s2
}

// Initial implements Solution: scores are already maintained, so the first
// evaluation just fills the rank index.
func (s *Q2IncrementalCC) Initial() (Result, error) {
	s.rank.Init(denseKeys(len(s.cc)), s.entry)
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}

// entry is comment ci's ranking entry at its maintained score.
func (s *Q2IncrementalCC) entry(ci int) Entry {
	return Entry{ID: s.comments.IDOf(ci), Score: s.cc[ci].score, Timestamp: s.commentTS[ci]}
}

// Update implements Solution: feed each change through its event handler,
// then re-rank the touched comments.
func (s *Q2IncrementalCC) Update(cs *model.ChangeSet) (Result, error) {
	touched := make(map[int]struct{})
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindRemoveLike:
			ci, ok := s.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := s.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown user %d", ch.Like.UserID)
			}
			s.onUnlike(ci, ui)
			touched[ci] = struct{}{}
			continue
		case model.KindRemoveFriendship:
			a, ok := s.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User1)
			}
			b, ok := s.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User2)
			}
			for _, ci := range s.onUnfriend(a, b) {
				touched[ci] = struct{}{}
			}
			continue
		}
		switch ch.Kind {
		case model.KindAddPost:
			s.posts.Add(ch.Post.ID)
		case model.KindAddUser:
			idx := s.users.Add(ch.User.ID)
			if idx == len(s.friends) {
				s.friends = append(s.friends, nil)
				s.userLikes = append(s.userLikes, nil)
			}
		case model.KindAddComment:
			idx := s.comments.Add(ch.Comment.ID)
			if idx == len(s.cc) {
				s.cc = append(s.cc, newCommentComponents())
				s.commentTS = append(s.commentTS, ch.Comment.Timestamp)
			}
			touched[idx] = struct{}{}
		case model.KindAddLike:
			ci, ok := s.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := s.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown user %d", ch.Like.UserID)
			}
			s.onLike(ci, ui)
			touched[ci] = struct{}{}
		case model.KindAddFriendship:
			a, ok := s.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User1)
			}
			b, ok := s.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User2)
			}
			// Scores change exactly in the comments both users like.
			s.forCoLiked(a, b, func(ci int) { touched[ci] = struct{}{} })
			s.onFriendship(a, b)
		default:
			return nil, fmt.Errorf("core: unknown change kind %d", ch.Kind)
		}
	}
	for ci := range touched {
		s.rank.Set(ci, s.entry(ci))
	}
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}
