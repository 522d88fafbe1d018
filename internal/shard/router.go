package shard

import (
	"repro/internal/core"
	"repro/internal/model"
)

// The router owns the one placement decision the runtime makes below an
// engine: which comments the Q2 engines hold. Each served engine runs
// whole on one shard (see shard.go). Q1 engines receive every change as
// the State resolved it, in State indices; they keep no friendship matrix.
//
// Q2 (influential comments) engines receive every post, user and
// friendship as it arrives. Comments with no likes are the exception: they score exactly 0, so the router parks them locally and
// ranks the parked set as one more (virtual) partition at merge time. A
// parked comment reaches the Q2 engines at its first like (or unlike), as
// a synthetic AddComment prepended to that change.
//
// The router routes changes the State has already validated and resolved
// (model.Ref), so it rejects nothing. The Q2 engines number their
// comments compactly (see core.Space): core.LikedSpace numbers the liked
// comments at load, the router numbers each comment it hands the engines
// after that, in that order, records it, and translates each ref into
// those indices. Users and posts keep their State indices.

// router holds the Q2 stream's state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	st *model.State

	// q2Comments is the Q2 engines' comments: each comment's local index
	// there, by State index, or −1 while the comment is parked: never
	// liked, so in no Q2 engine and scoring exactly 0.
	q2Comments *core.Space

	// parkedRank ranks the parked comments as a virtual partition. Its
	// slots are their State indices alone: ids and timestamps are read
	// back through the State.
	parkedRank core.RankHeap[struct{}, byComment]

	// q2 is the last routed commit's Q2 stream, reused from commit to
	// commit.
	q2 []model.Ref
}

// newRouter numbers the liked comments of view, a View of st, as the Q2
// engines attach them from it, and parks the likeless ones.
func newRouter(st *model.State, view *model.View) *router {
	r := &router{st: st, q2Comments: core.LikedSpace(view)}
	nc, liked := len(r.q2Comments.Local), len(r.q2Comments.Of)
	// The parked slots become the heap's storage, with a quarter more room
	// for the comments that park next.
	parked := make([]core.Slot[struct{}], 0, (nc-liked)+(nc-liked)/4)
	for ci, l := range r.q2Comments.Local {
		if l < 0 {
			parked = append(parked, core.Slot[struct{}]{Key: int32(ci)})
		}
	}
	r.parkedRank.Init(byComment{st}, parked)
	return r
}

// route translates one validated, resolved change set into the Q2 stream,
// which stays valid until the next route.
func (r *router) route(refs []model.Ref) []model.Ref {
	r.q2 = r.q2[:0]
	sp := r.q2Comments
	for _, x := range refs {
		if x.Kind == model.KindAddComment {
			sp.Local = append(sp.Local, -1)
			r.parkedRank.Set(core.Slot[struct{}]{Key: x.A})
			continue
		}
		if f, _ := x.Kind.Family(); f == model.KeyLike {
			if c := x.B; sp.Local[c] < 0 {
				sp.Local[c] = int32(len(sp.Of))
				sp.Of = append(sp.Of, c)
				r.parkedRank.Remove(int(c))
				r.q2 = append(r.q2, model.Ref{Kind: model.KindAddComment, A: sp.Local[c], B: int32(r.st.Root(int(c)))})
			}
			x.B = sp.Local[x.B]
		}
		r.q2 = append(r.q2, x)
	}
	return r.q2
}

// byComment ranks comments, each slot keyed by its State index, by their
// entries in the State. Only parked comments go through it: likeless, each
// scores 0.
type byComment struct{ st *model.State }

func (o byComment) Entry(s core.Slot[struct{}]) core.Entry {
	id, ts := o.st.CommentIDTime(int(s.Key))
	return core.Entry{ID: id, Score: 0, Timestamp: ts}
}

func (o byComment) Less(a, b core.Slot[struct{}]) bool { return core.Less(o.Entry(a), o.Entry(b)) }

// parkedComments counts the parked comments.
func (r *router) parkedComments() int { return r.parkedRank.Len() }

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }
