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
// friendship as it arrives, and the verifier (verify.go) feeds the paper's
// Q2 the same stream, a few commits later. Comments with no likes are the
// exception: they score exactly 0, so the router parks them locally and
// ranks the parked set as one more (virtual) partition at merge time. A
// parked comment reaches the Q2 engines at its first like (or unlike), as
// a synthetic AddComment prepended to that change.
//
// The router routes changes the State has already validated and resolved
// (model.Ref), so it rejects nothing. The Q2 engines number their
// comments compactly (see core.Space): the router assigns those local
// indices, in the order it hands the comments to the engines, records
// them, and translates each ref into them. Users and posts keep their
// State indices.

// router holds the Q2 stream's state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	st *model.State

	// q2Comments is the Q2 engines' comments; q2Local holds each comment's
	// local index there, by State index, or −1 while the comment is parked:
	// never liked, so in no Q2 engine and scoring exactly 0.
	q2Comments *core.Space
	q2Local    []int32

	// parkedRank ranks the parked comments as a virtual partition. Its
	// slots are their State indices alone: ids and timestamps are read
	// back through the State.
	parkedRank core.RankHeap[struct{}, byComment]

	// q2 is the last routed commit's Q2 stream, reused from commit to
	// commit.
	q2 []model.Ref
}

// newRouter parks the likeless comments of st, whose resolved contents
// are refs (st.Refs()), and returns the router with the refs that build
// the Q2 engines, in their indices.
func newRouter(st *model.State, refs []model.Ref) (r *router, q2 []model.Ref) {
	_, nc, _ := st.Counts()
	r = &router{
		st:         st,
		q2Comments: &core.Space{},
		q2Local:    make([]int32, nc),
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
	return r, q2
}

// route translates one validated, resolved change set into the Q2 stream,
// which stays valid until the next route.
func (r *router) route(refs []model.Ref) []model.Ref {
	r.q2 = r.q2[:0]
	for _, x := range refs {
		if x.Kind == model.KindAddComment {
			r.q2Local = append(r.q2Local, -1)
			r.parkedRank.Set(core.Slot[struct{}]{Key: x.A})
			continue
		}
		if f, _ := x.Kind.Family(); f == model.KeyLike {
			if c := x.B; r.q2Local[c] < 0 {
				r.q2Local[c] = int32(len(r.q2Comments.Of))
				r.q2Comments.Of = append(r.q2Comments.Of, c)
				r.parkedRank.Remove(int(c))
				r.q2 = append(r.q2, model.Ref{Kind: model.KindAddComment, A: r.q2Local[c], B: int32(r.st.Root(int(c)))})
			}
			x.B = r.q2Local[x.B]
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
