package shard

import (
	"fmt"

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
//     Q2 engines run on one home shard, q2Shard, and receive every post,
//     user and friendship as it arrives.
//
//     Comments with no likes are the exception: they score exactly 0, so the
//     router parks them locally and ranks the parked set as one more
//     (virtual) partition at merge time. A parked comment reaches the Q2
//     engines at its first like (or unlike), as a synthetic AddComment
//     prepended to that change.
//
// The router's state is one record per comment: the root post Q1 routes a
// like by, the timestamp and parent a parked comment is ranked and
// materialized with, and a parked flag. Users are not tracked; a change
// naming an unknown user is rejected by the engines' own id resolution.

// q2Shard is the shard whose worker runs the Q2 engines.
const q2Shard = 0

// commentRec is one comment's record, indexed like the router's comments
// map.
type commentRec struct {
	timestamp int64
	parent    model.ID
	post      model.ID // root post
}

// plan is the per-commit output of routing: one Q1 change list per shard
// and the home shard's Q2 change list.
type plan struct {
	q1 [][]model.Change
	q2 []model.Change
}

// router holds all partitioning state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	n int

	// comments indexes recs and parked by comment id.
	comments model.IDMap
	recs     []commentRec
	// parked marks the comments that have never been liked: they belong to
	// no Q2 partition and score exactly 0.
	parked []bool

	// parkedRank ranks the parked comments by comment index as a virtual
	// partition.
	parkedRank core.RankIndex
}

func newRouter(n int, snap *model.Snapshot) (*router, error) {
	r := &router{
		n:      n,
		recs:   make([]commentRec, 0, len(snap.Comments)),
		parked: make([]bool, 0, len(snap.Comments)),
	}
	for _, c := range snap.Comments {
		if _, err := r.addComment(c); err != nil {
			return nil, err
		}
	}
	liked := make([]bool, len(r.recs))
	for _, l := range snap.Likes {
		ci, err := r.lookup(l.CommentID)
		if err != nil {
			return nil, err
		}
		liked[ci] = true
	}
	var parkedIdx []int
	for ci := range liked {
		if !liked[ci] {
			r.parked[ci] = true
			parkedIdx = append(parkedIdx, ci)
		}
	}
	r.parkedRank.Init(parkedIdx, r.parkedEntry)
	return r, nil
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

// addComment records a new comment, unparked, and returns its index.
func (r *router) addComment(c model.Comment) (int, error) {
	ci := r.comments.Add(c.ID)
	if ci != len(r.recs) {
		return 0, fmt.Errorf("shard: comment %d added twice", c.ID)
	}
	r.recs = append(r.recs, commentRec{timestamp: c.Timestamp, parent: c.ParentID, post: c.PostID})
	r.parked = append(r.parked, false)
	return ci, nil
}

func (r *router) lookup(id model.ID) (int, error) {
	ci, ok := r.comments.Index(id)
	if !ok {
		return 0, fmt.Errorf("shard: change references unknown comment %d", id)
	}
	return ci, nil
}

// comment rebuilds comment ci's model record.
func (r *router) comment(ci int) model.Comment {
	c := r.recs[ci]
	return model.Comment{ID: r.comments.IDOf(ci), Timestamp: c.timestamp, ParentID: c.parent, PostID: c.post}
}

// route translates one validated change set into the per-shard plan.
func (r *router) route(cs *model.ChangeSet) (*plan, error) {
	p := &plan{q1: make([][]model.Change, r.n)}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddPost:
			s := hashShard(ch.Post.ID, r.n)
			p.q1[s] = append(p.q1[s], ch)
			p.q2 = append(p.q2, ch)
		case model.KindAddUser:
			for s := range p.q1 { // Q1 partitions hold all users (like targets)
				p.q1[s] = append(p.q1[s], ch)
			}
			p.q2 = append(p.q2, ch)
		case model.KindAddComment:
			ci, err := r.addComment(ch.Comment)
			if err != nil {
				return nil, err
			}
			r.park(ci)
			s := hashShard(ch.Comment.PostID, r.n)
			p.q1[s] = append(p.q1[s], ch)
		case model.KindAddLike, model.KindRemoveLike:
			ci, err := r.lookup(ch.Like.CommentID)
			if err != nil {
				return nil, err
			}
			if r.parked[ci] {
				r.unpark(ci)
				p.q2 = append(p.q2, model.Change{Kind: model.KindAddComment, Comment: r.comment(ci)})
			}
			p.q2 = append(p.q2, ch)
			s := hashShard(r.recs[ci].post, r.n)
			p.q1[s] = append(p.q1[s], ch)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			p.q2 = append(p.q2, ch) // Q1 ignores the friends graph
		default:
			return nil, fmt.Errorf("shard: unknown change kind %d", ch.Kind)
		}
	}
	return p, nil
}

// q1Snapshot builds shard s's Q1 partition of the initial snapshot: its
// hashed posts with their comment subtrees and likes, and every user (likes
// reference users, and users are too cheap to be worth partitioning for
// Q1). Friendships are omitted — Q1 never reads them. With one shard every
// post hashes to it, so the partition shares the snapshot's slices.
func (r *router) q1Snapshot(snap *model.Snapshot, s int) *model.Snapshot {
	out := &model.Snapshot{Users: snap.Users}
	if r.n == 1 {
		out.Posts, out.Comments, out.Likes = snap.Posts, snap.Comments, snap.Likes
		return out
	}
	for _, p := range snap.Posts {
		if hashShard(p.ID, r.n) == s {
			out.Posts = append(out.Posts, p)
		}
	}
	for _, c := range snap.Comments {
		if hashShard(c.PostID, r.n) == s {
			out.Comments = append(out.Comments, c)
		}
	}
	for _, l := range snap.Likes {
		if hashShard(r.recs[r.comments.MustIndex(l.CommentID)].post, r.n) == s {
			out.Likes = append(out.Likes, l)
		}
	}
	return out
}

// q2Snapshot is the home shard's Q2 partition of the initial snapshot: all
// of it but the parked comments. It must run before any route.
func (r *router) q2Snapshot(snap *model.Snapshot) *model.Snapshot {
	out := *snap
	out.Comments = make([]model.Comment, 0, len(snap.Comments)-r.parkedComments())
	for ci, c := range snap.Comments {
		if !r.parked[ci] {
			out.Comments = append(out.Comments, c)
		}
	}
	return &out
}

// park adds a likeless comment to the router-side parking.
func (r *router) park(ci int) {
	r.parked[ci] = true
	r.parkedRank.Set(ci, r.parkedEntry(ci))
}

// parkedEntry is a parked comment's ranking entry: likeless, it scores 0.
func (r *router) parkedEntry(ci int) core.Entry {
	return core.Entry{ID: r.comments.IDOf(ci), Score: 0, Timestamp: r.recs[ci].timestamp}
}

// unpark hands a parked comment to the Q2 engines at its first like.
func (r *router) unpark(ci int) {
	r.parked[ci] = false
	r.parkedRank.Remove(ci)
}

// parkedComments counts the parked comments.
func (r *router) parkedComments() int { return r.parkedRank.Len() }

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }
