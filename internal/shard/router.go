package shard

import (
	"repro/internal/core"
	"repro/internal/model"
)

// The router owns the partitioning decisions of the sharded runtime. The
// two queries are placed differently:
//
//   - Q1 (influential posts) scores a post from its comment subtree alone,
//     so posts hash onto shards and every comment (and like on it) follows
//     its root post. Users go to every Q1 partition (likes reference them).
//
//   - Q2 (influential comments) scores a comment from the friendship
//     subgraph induced by its likers, so a Q2 partition must be closed under
//     friendships between likers. The social graph has one giant friendship
//     component, so the only useful such partition is the whole graph: the
//     served Q2 engine runs on one home shard, q2Shard, and receives every
//     post, user and friendship as it arrives; the verifier (verify.go)
//     feeds the paper's Q2 the same stream, a few commits later.
//
//     Comments with no likes are the exception: they score exactly 0, so the
//     router parks them locally and ranks the parked set as one more
//     (virtual) partition at merge time. A parked comment reaches the Q2
//     engines at its first like (or unlike), as a synthetic AddComment
//     prepended to that change.
//
// The router routes changes the State has already validated and resolved
// (model.Ref), so it rejects nothing. An engine that holds only some nodes
// of a kind numbers them compactly (see core.Space): the router assigns
// those local indices, in the order it hands the nodes to the engine,
// records them, and translates each ref into them. It keeps, by State
// comment index, the comment's local index in the Q2 engines (or parked)
// and, over more than one shard, in its Q1 partition, and by State post
// index the post's local index in its Q1 partition. Users keep their State
// indices everywhere, and so do posts in the Q2 engines and, on one shard,
// posts and comments in the Q1 partition.

// q2Shard is the shard whose worker runs the served Q2 engine.
const q2Shard = 0

// plan is the per-commit output of routing: one Q1 ref list per shard and
// the home shard's Q2 ref list, each in its engines' indices. The router
// reuses it from commit to commit.
type plan struct {
	q1 [][]model.Ref
	q2 []model.Ref
}

// router holds all partitioning state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	n  int
	st *model.State

	// Q1 partitions over more than one shard: each shard's posts, each
	// post's and comment's local index in its partition, and each
	// partition's comment count. All nil on one shard.
	q1Posts      []*core.Space
	postLocal    []int32
	commentLocal []int32
	q1Comments   []int32

	// q2Comments is the Q2 engines' comments; q2Local holds each comment's
	// local index there, by State index, or −1 while the comment is parked:
	// never liked, so in no Q2 partition and scoring exactly 0.
	q2Comments *core.Space
	q2Local    []int32

	// parkedRank ranks the parked comments as a virtual partition. Its
	// slots are their State indices alone: ids and timestamps are read
	// back through the State.
	parkedRank core.RankHeap[struct{}, byComment]

	plan plan
}

// newRouter places the state's nodes and returns the router with the refs
// that build each shard's Q1 partition and the Q2 partition, in the
// engines' indices.
func newRouter(n int, st *model.State) (r *router, q1 [][]model.Ref, q2 []model.Ref) {
	refs := st.Refs()
	np, nc, _ := st.Counts()
	r = &router{
		n:          n,
		st:         st,
		q2Comments: &core.Space{},
		q2Local:    make([]int32, nc),
		plan:       plan{q1: make([][]model.Ref, n)},
	}
	liked := 0
	for _, x := range refs {
		if x.Kind == model.KindAddLike && r.q2Local[x.B] == 0 {
			r.q2Local[x.B] = 1
			liked++
		}
	}
	// The parked slots become the heap's storage, with a quarter more room
	// for the comments that park next.
	parked := make([]core.Slot[struct{}], 0, (nc-liked)+(nc-liked)/4)
	for ci, l := range r.q2Local {
		r.q2Local[ci] = -1
		if l == 1 {
			r.q2Local[ci] = int32(len(r.q2Comments.Of))
			r.q2Comments.Of = append(r.q2Comments.Of, int32(ci))
		} else {
			parked = append(parked, core.Slot[struct{}]{Key: int32(ci)})
		}
	}
	r.parkedRank.Init(byComment{st}, parked)
	q2 = make([]model.Ref, 0, len(refs)-len(parked))
	for _, x := range refs {
		switch x.Kind {
		case model.KindAddComment:
			if r.q2Local[x.A] < 0 {
				continue
			}
			x.A = r.q2Local[x.A]
		case model.KindAddLike:
			x.B = r.q2Local[x.B]
		}
		q2 = append(q2, x)
	}

	if n == 1 {
		// One partition holds every node, in State indices; Q1 engines
		// keep no friendship matrix.
		return r, [][]model.Ref{refs}, q2
	}
	r.q1Posts = make([]*core.Space, n)
	for s := range r.q1Posts {
		r.q1Posts[s] = &core.Space{}
	}
	r.postLocal = make([]int32, 0, np)
	r.commentLocal = make([]int32, 0, nc)
	r.q1Comments = make([]int32, n)
	q1 = make([][]model.Ref, n)
	for _, x := range refs {
		switch x.Kind {
		case model.KindAddUser:
			for s := range q1 {
				q1[s] = append(q1[s], x)
			}
		case model.KindAddPost, model.KindAddComment, model.KindAddLike:
			s, y := r.q1Ref(x)
			q1[s] = append(q1[s], y)
		}
	}
	return r, q1, q2
}

// hashShard places ids deterministically (splitmix64 finalizer).
func hashShard(id model.ID, n int) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// q1Ref places a post, comment or like ref on the Q1 partition of its
// (root) post and translates it into that partition's indices, assigning
// a new post or comment its local index. On one shard it changes nothing.
func (r *router) q1Ref(x model.Ref) (int, model.Ref) {
	if r.n == 1 {
		return 0, x
	}
	switch x.Kind {
	case model.KindAddPost:
		post := x.A
		s := hashShard(r.st.Post(int(post)).ID, r.n)
		x.A = int32(len(r.q1Posts[s].Of))
		r.q1Posts[s].Of = append(r.q1Posts[s].Of, post)
		r.postLocal = append(r.postLocal, x.A)
		return s, x
	case model.KindAddComment:
		s := hashShard(r.st.Post(int(x.B)).ID, r.n)
		x.A, x.B = r.q1Comments[s], r.postLocal[x.B]
		r.q1Comments[s]++
		r.commentLocal = append(r.commentLocal, x.A)
		return s, x
	default: // a like or an unlike
		s := hashShard(r.st.Post(r.st.Root(int(x.B))).ID, r.n)
		x.B = r.commentLocal[x.B]
		return s, x
	}
}

// route translates one validated, resolved change set into the per-shard
// plan, which stays valid until the next route.
func (r *router) route(refs []model.Ref) *plan {
	p := &r.plan
	for s := range p.q1 {
		p.q1[s] = p.q1[s][:0]
	}
	p.q2 = p.q2[:0]
	for _, x := range refs {
		switch x.Kind {
		case model.KindAddPost:
			s, y := r.q1Ref(x)
			p.q1[s] = append(p.q1[s], y)
			p.q2 = append(p.q2, x)
		case model.KindAddUser:
			for s := range p.q1 { // Q1 partitions hold all users (like targets)
				p.q1[s] = append(p.q1[s], x)
			}
			p.q2 = append(p.q2, x)
		case model.KindAddComment:
			s, y := r.q1Ref(x)
			p.q1[s] = append(p.q1[s], y)
			r.q2Local = append(r.q2Local, -1)
			r.parkedRank.Set(core.Slot[struct{}]{Key: x.A})
		case model.KindAddLike, model.KindRemoveLike:
			if c := x.B; r.q2Local[c] < 0 {
				r.q2Local[c] = int32(len(r.q2Comments.Of))
				r.q2Comments.Of = append(r.q2Comments.Of, c)
				r.parkedRank.Remove(int(c))
				p.q2 = append(p.q2, model.Ref{Kind: model.KindAddComment, A: r.q2Local[c], B: int32(r.st.Root(int(c)))})
			}
			s, y := r.q1Ref(x)
			p.q1[s] = append(p.q1[s], y)
			x.B = r.q2Local[x.B]
			p.q2 = append(p.q2, x)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			p.q2 = append(p.q2, x) // Q1 ignores the friends graph
		}
	}
	return p
}

// byComment ranks comments, each slot keyed by its State index, by their
// entries in the State. Only parked comments go through it: likeless, each
// scores 0.
type byComment struct{ st *model.State }

func (o byComment) Entry(s core.Slot[struct{}]) core.Entry {
	c := o.st.Comment(int(s.Key))
	return core.Entry{ID: c.ID, Score: 0, Timestamp: c.Timestamp}
}

func (o byComment) Less(a, b core.Slot[struct{}]) bool { return core.Less(o.Entry(a), o.Entry(b)) }

// parkedComments counts the parked comments.
func (r *router) parkedComments() int { return r.parkedRank.Len() }

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }
