package shard

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
)

// The router owns the partitioning decisions of the sharded runtime. The
// two queries partition along different natural axes, so every change is
// routed twice — once per engine family:
//
//   - Q1 (influential posts) scores a post from its comment subtree alone,
//     so posts hash onto shards and every comment (and like on it) follows
//     its root post. No rebalancing is ever needed.
//
//   - Q2 (influential comments) scores a comment from the friendship
//     subgraph induced by its likers, so a comment must be co-located with
//     all of its likers and the friendships between them. The router
//     maintains a union-find over users ∪ comments where a friendship
//     unions its two users and a like unions the user with the comment;
//     each resulting group lives wholly on one shard, which makes every
//     shard's Q2 scores exact for the comments it owns. When a new edge
//     merges two groups living on different shards, the router migrates the
//     smaller (by materialized entities) group to the other shard: the
//     donor subtracts the group's subgraph from its Q2 engines and the
//     recipient adds it (see migrate).
//
//     Comments with no likes are not assigned to any shard at all: they
//     score exactly 0, so the router parks them locally and ranks the
//     parked set as one more (virtual) partition at merge time. A parked
//     comment materializes directly onto its first liker's shard, which
//     keeps the common arrival order "comment now, first like a few
//     commits later" migration-free — migrations happen only when a
//     new edge genuinely merges two populated groups across shards.
//
// Removals (the future-work workload) never split router groups: a
// union-find cannot un-union, so the grouping over-approximates the true
// connectivity. Over-grouping only costs parallelism, never correctness —
// co-location requirements are monotone in the edge history.
//
// The router stores the Q2 partitions once, indexed by union-find node
// rather than per shard: a node's shard is groupShard[find(node)], its
// entity is in a partition iff its state is materialized, and adj holds the
// edges Q2 reads (a comment's likers, a user's friends). A migration
// therefore moves nothing inside the router — re-stamping the merged root's
// shard moves the whole group — and a partition snapshot is rendered from
// the store on demand. Every per-node value is fixed-width and
// slice-indexed; the only maps are the two id → node indexes. Memory is
// proportional to the graph once, not to the graph plus a per-shard copy.
type nodeKind uint8

const (
	nodeUser nodeKind = iota
	nodeComment
)

// nodeKey identifies one union-find node (a user or a comment).
type nodeKey struct {
	kind nodeKind
	id   model.ID
}

func userKey(id model.ID) nodeKey    { return nodeKey{nodeUser, id} }
func commentKey(id model.ID) nodeKey { return nodeKey{nodeComment, id} }

func (k nodeKey) less(o nodeKey) bool {
	if k.kind != o.kind {
		return k.kind < o.kind
	}
	return k.id < o.id
}

// nodeState says where a node's entity lives.
type nodeState uint8

const (
	stateNone         nodeState = iota // in no Q2 partition yet
	stateMaterialized                  // in its group's Q2 partition
	stateParked                        // a likeless comment, held by the router
)

// commentRec is a comment node's record; the comment's id is the node's.
type commentRec struct {
	timestamp int64
	parent    model.ID
	post      model.ID // root post
}

// shardOp is one migration-bookkeeping step for a single shard, applied
// before the shard's routed q2 stream. Exactly one field is set: retract is
// the donor side of a group migration (a self-contained subtractive delta
// for core.DeltaEngine), synthetic the recipient side (the moved subgraph
// replayed as adds). Ops are chronological — a shard that receives a group
// and then donates the merged result in the same commit sees the add batch
// before the retraction.
type shardOp struct {
	retract   *model.Retraction
	synthetic []model.Change
}

// plan is the per-commit output of routing: one change list per shard and
// engine family, plus the chronological migration ops per shard.
type plan struct {
	q1  [][]model.Change
	q2  [][]model.Change
	ops [][]shardOp
}

// router holds all partitioning state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	n int

	// posts is every post ever seen; posts are broadcast to all Q2
	// partitions (comments need their root to exist wherever they land).
	// Q1 needs no table: a post lives on hashShard(post), and a comment and
	// its likes follow their root post.
	posts []model.Post

	// parkedRank ranks the parked comments (likeless, so they belong to no
	// Q2 partition and score exactly 0) by node index as a virtual
	// partition; a parked comment materializes onto its first liker's shard.
	parkedRank core.RankIndex

	// nodeOf[kind] indexes the union-find nodes of that kind by entity id.
	nodeOf [2]map[model.ID]int32

	// Per node. Node indices fit in int32 (addNode enforces it).
	ids    []model.ID
	kinds  []nodeKind
	states []nodeState
	recs   []commentRec // comment nodes only
	parent []int32
	// next links each group's members into a circular ring, so a merge
	// splices two rings in O(1) and a group is walked from its root.
	next []int32
	// adj holds the Q2 edges per node: a comment node lists its likers, a
	// user node its friends (both directions).
	adj [][]int32

	// Valid at a root: group size, materialized members and shard.
	size       []int32
	matCount   []int32
	groupShard []int32

	rebalances int
}

func newRouter(n int, snap *model.Snapshot) (*router, error) {
	nodes := len(snap.Users) + len(snap.Comments)
	r := &router{
		n:          n,
		posts:      append([]model.Post(nil), snap.Posts...),
		nodeOf:     [2]map[model.ID]int32{make(map[model.ID]int32, len(snap.Users)), make(map[model.ID]int32, len(snap.Comments))},
		ids:        make([]model.ID, 0, nodes),
		kinds:      make([]nodeKind, 0, nodes),
		states:     make([]nodeState, 0, nodes),
		recs:       make([]commentRec, 0, nodes),
		parent:     make([]int32, 0, nodes),
		next:       make([]int32, 0, nodes),
		adj:        make([][]int32, 0, nodes),
		size:       make([]int32, 0, nodes),
		matCount:   make([]int32, 0, nodes),
		groupShard: make([]int32, 0, nodes),
	}

	// Build the Q2 grouping of the initial snapshot, then spread whole
	// groups over the shards, largest first onto the least-loaded shard, so
	// the initial partition is balanced and deterministic.
	for _, u := range snap.Users {
		if _, err := r.addNode(userKey(u.ID), 0); err != nil {
			return nil, err
		}
	}
	for _, c := range snap.Comments {
		if _, err := r.addComment(c, 0); err != nil {
			return nil, err
		}
	}
	for _, l := range snap.Likes {
		u, c, err := r.loadUnion(userKey(l.UserID), commentKey(l.CommentID))
		if err != nil {
			return nil, err
		}
		r.adj[c] = append(r.adj[c], int32(u))
	}
	for _, f := range snap.Friendships {
		u, v, err := r.loadUnion(userKey(f.User1), userKey(f.User2))
		if err != nil {
			return nil, err
		}
		r.adj[u] = append(r.adj[u], int32(v))
		r.adj[v] = append(r.adj[v], int32(u))
	}
	// A singleton comment node is a likeless comment (comment nodes only
	// ever union through likes): park it instead of assigning a shard.
	var parkedNodes, roots []int
	for ni := range r.parent {
		switch {
		case r.kinds[ni] == nodeComment && int(r.next[ni]) == ni:
			r.states[ni] = stateParked
			parkedNodes = append(parkedNodes, ni)
		case int(r.parent[ni]) == ni:
			roots = append(roots, ni)
		}
	}
	r.parkedRank.Init(parkedNodes, r.parkedEntry)
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := roots[a], roots[b]
		if r.size[ra] != r.size[rb] {
			return r.size[ra] > r.size[rb]
		}
		return r.minMemberKey(ra).less(r.minMemberKey(rb))
	})
	load := make([]int, n)
	for _, root := range roots {
		s := 0
		for i := 1; i < n; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		r.groupShard[root] = int32(s)
		load[s] += int(r.size[root])
		r.matCount[root] = r.size[root]
		r.eachMember(root, func(ni int) { r.states[ni] = stateMaterialized })
	}
	return r, nil
}

// unlink swap-removes the first v from a node's adjacency list, costing
// O(degree). The order of an adjacency list carries no meaning.
func unlink(list []int32, v int) []int32 {
	for k, x := range list {
		if int(x) == v {
			last := len(list) - 1
			list[k] = list[last]
			return list[:last]
		}
	}
	return list
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

// addNode returns k's node index, creating the node (a singleton group
// stamped with shard) if k is new. It fails rather than let a node index
// outgrow int32.
func (r *router) addNode(k nodeKey, shard int) (int, error) {
	if ni, ok := r.nodeOf[k.kind][k.id]; ok {
		return int(ni), nil
	}
	ni := len(r.parent)
	if ni >= math.MaxInt32 {
		return 0, fmt.Errorf("shard: router holds %d users and comments, the most it can index", ni)
	}
	r.nodeOf[k.kind][k.id] = int32(ni)
	r.ids = append(r.ids, k.id)
	r.kinds = append(r.kinds, k.kind)
	r.states = append(r.states, stateNone)
	r.recs = append(r.recs, commentRec{})
	r.parent = append(r.parent, int32(ni))
	r.next = append(r.next, int32(ni))
	r.adj = append(r.adj, nil)
	r.size = append(r.size, 1)
	r.matCount = append(r.matCount, 0)
	r.groupShard = append(r.groupShard, int32(shard))
	return ni, nil
}

// addComment is addNode for a comment, recording its timestamp, parent and
// root post.
func (r *router) addComment(c model.Comment, shard int) (int, error) {
	ni, err := r.addNode(commentKey(c.ID), shard)
	if err == nil {
		r.recs[ni] = commentRec{timestamp: c.Timestamp, parent: c.ParentID, post: c.PostID}
	}
	return ni, err
}

func (r *router) key(ni int) nodeKey { return nodeKey{r.kinds[ni], r.ids[ni]} }

// comment rebuilds comment node ni's model record.
func (r *router) comment(ni int) model.Comment {
	c := r.recs[ni]
	return model.Comment{ID: r.ids[ni], Timestamp: c.timestamp, ParentID: c.parent, PostID: c.post}
}

func (r *router) find(x int) int {
	for int(r.parent[x]) != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = int(r.parent[x])
	}
	return x
}

func (r *router) lookup(k nodeKey) (int, error) {
	ni, ok := r.nodeOf[k.kind][k.id]
	if !ok {
		return 0, fmt.Errorf("shard: change references unknown %s %d", [...]string{"user", "comment"}[k.kind], k.id)
	}
	return int(ni), nil
}

// eachMember calls f on every node of root's group, walking its ring.
func (r *router) eachMember(root int, f func(ni int)) {
	for ni := root; ; {
		f(ni)
		if ni = int(r.next[ni]); ni == root {
			return
		}
	}
}

func (r *router) minMemberKey(root int) nodeKey {
	min := r.key(root)
	r.eachMember(root, func(ni int) {
		if k := r.key(ni); k.less(min) {
			min = k
		}
	})
	return min
}

// lookup2 resolves the two endpoints of an edge.
func (r *router) lookup2(a, b nodeKey) (int, int, error) {
	na, err := r.lookup(a)
	if err != nil {
		return 0, 0, err
	}
	nb, err := r.lookup(b)
	return na, nb, err
}

// loadUnion merges groups during initial-snapshot analysis, before shards
// are assigned — no migration bookkeeping. It returns the two nodes.
func (r *router) loadUnion(a, b nodeKey) (int, int, error) {
	na, nb, err := r.lookup2(a, b)
	if err == nil {
		if ra, rb := r.find(na), r.find(nb); ra != rb {
			r.mergeRoots(ra, rb, 0)
		}
	}
	return na, nb, err
}

// mergeRoots links the smaller root under the larger, splices their member
// rings in O(1), and stamps the merged root with the given shard.
func (r *router) mergeRoots(ra, rb int, shard int32) {
	if r.size[ra] < r.size[rb] {
		ra, rb = rb, ra
	}
	r.parent[rb] = int32(ra)
	r.next[ra], r.next[rb] = r.next[rb], r.next[ra]
	r.size[ra] += r.size[rb]
	r.matCount[ra] += r.matCount[rb]
	r.groupShard[ra] = shard
}

// union merges the groups of a and b during a commit. If the groups live on
// different shards, the side with fewer materialized entities migrates to
// the other side's shard: the donor is queued a retraction of the moved
// subgraph and the recipient synthetic add-changes replaying it.
func (r *router) union(a, b nodeKey, p *plan) error {
	na, nb, err := r.lookup2(a, b)
	if err != nil {
		return err
	}
	ra, rb := r.find(na), r.find(nb)
	if ra == rb {
		return nil
	}
	winner, loser := ra, rb
	if r.matCount[loser] > r.matCount[winner] ||
		(r.matCount[loser] == r.matCount[winner] &&
			(r.size[loser] > r.size[winner] ||
				(r.size[loser] == r.size[winner] && r.groupShard[loser] < r.groupShard[winner]))) {
		winner, loser = loser, winner
	}
	dest := r.groupShard[winner]
	if r.groupShard[loser] != dest && r.matCount[loser] > 0 {
		r.migrate(loser, dest, p)
	}
	r.mergeRoots(winner, loser, dest)
	return nil
}

// migrate moves the materialized entities of the group rooted at loser from
// its current shard to dest: the moved subgraph is expressed once as a
// keyed delta, queued for the donor as a retraction (every served Q2
// engine subtracts it through core.DeltaEngine) and for the recipient as
// synthetic add-changes. All materialized members of a group live on its
// shard and all their Q2-relevant edges are intra-group, so the member ring
// and its adjacency describe a complete, self-contained subgraph — exactly
// the precondition DeltaEngine.Retract requires. The store itself needs no
// update: the caller re-stamps the merged root.
func (r *router) migrate(loser int, dest int32, p *plan) {
	src := r.groupShard[loser]
	ret := &model.Retraction{}
	var movedComments []model.Comment
	r.eachMember(loser, func(ni int) {
		if r.states[ni] != stateMaterialized {
			return
		}
		id := r.ids[ni]
		if r.kinds[ni] == nodeUser {
			ret.Users = append(ret.Users, id)
			// Both endpoints of every moved friendship migrate together, so
			// the u < v half of the adjacency lists each edge exactly once.
			for _, v := range r.adj[ni] {
				if vid := r.ids[v]; id < vid {
					ret.Friendships = append(ret.Friendships, model.Friendship{User1: id, User2: vid})
				}
			}
			return
		}
		ret.Comments = append(ret.Comments, id)
		movedComments = append(movedComments, r.comment(ni))
		for _, u := range r.adj[ni] {
			ret.Likes = append(ret.Likes, model.Like{UserID: r.ids[u], CommentID: id})
		}
	})

	// The recipient's synthetic add stream is the same delta replayed
	// additively: nodes first, then the edges among them.
	syn := make([]model.Change, 0, ret.Size())
	for _, id := range ret.Users {
		syn = append(syn, model.Change{Kind: model.KindAddUser, User: model.User{ID: id}})
	}
	for _, c := range movedComments {
		syn = append(syn, model.Change{Kind: model.KindAddComment, Comment: c})
	}
	for _, l := range ret.Likes {
		syn = append(syn, model.Change{Kind: model.KindAddLike, Like: l})
	}
	for _, f := range ret.Friendships {
		syn = append(syn, model.Change{Kind: model.KindAddFriendship, Friendship: f})
	}

	p.ops[src] = append(p.ops[src], shardOp{retract: ret})
	p.ops[dest] = append(p.ops[dest], shardOp{synthetic: syn})
	r.rebalances++
}

// route translates one validated change set into the per-shard plan. Pass A
// resolves all group merges (and migrations) first so that pass B can route
// every change against the final ownership — a change early in the set must
// not land on a shard that loses its group to a merge later in the set.
func (r *router) route(cs *model.ChangeSet) (*plan, error) {
	p := &plan{q1: make([][]model.Change, r.n), q2: make([][]model.Change, r.n), ops: make([][]shardOp, r.n)}

	// Pass A: create nodes for new entities, union along new edges.
	for i := range cs.Changes {
		ch := &cs.Changes[i]
		switch ch.Kind {
		case model.KindAddUser:
			if _, err := r.addNode(userKey(ch.User.ID), hashShard(ch.User.ID, r.n)); err != nil {
				return nil, err
			}
		case model.KindAddComment:
			if _, err := r.addComment(ch.Comment, hashShard(ch.Comment.ID, r.n)); err != nil {
				return nil, err
			}
		case model.KindAddLike:
			if err := r.union(userKey(ch.Like.UserID), commentKey(ch.Like.CommentID), p); err != nil {
				return nil, err
			}
		case model.KindAddFriendship:
			if err := r.union(userKey(ch.Friendship.User1), userKey(ch.Friendship.User2), p); err != nil {
				return nil, err
			}
		}
	}

	// Pass B: route each change to its final owner and keep the store (the
	// authoritative partition content) current.
	for i := range cs.Changes {
		ch := cs.Changes[i]
		switch ch.Kind {
		case model.KindAddPost:
			r.posts = append(r.posts, ch.Post)
			s := hashShard(ch.Post.ID, r.n)
			p.q1[s] = append(p.q1[s], ch)
			for t := range p.q2 { // every Q2 partition needs every root post
				p.q2[t] = append(p.q2[t], ch)
			}
		case model.KindAddUser:
			ni, err := r.lookup(userKey(ch.User.ID))
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			s := r.groupShard[root]
			if r.states[ni] != stateMaterialized {
				r.states[ni] = stateMaterialized
				r.matCount[root]++
			}
			p.q2[s] = append(p.q2[s], ch)
			for t := range p.q1 { // Q1 partitions hold all users (like targets)
				p.q1[t] = append(p.q1[t], ch)
			}
		case model.KindAddComment:
			// Q2: park the likeless comment at the router; it materializes
			// on a shard at its first like (keeping first likes
			// migration-free — no singleton group to move). Pass A gave it
			// its node and record.
			ni, err := r.lookup(commentKey(ch.Comment.ID))
			if err != nil {
				return nil, err
			}
			r.park(ni)
			ps := hashShard(ch.Comment.PostID, r.n)
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddLike, model.KindRemoveLike:
			ni, ui, err := r.lookup2(commentKey(ch.Like.CommentID), userKey(ch.Like.UserID))
			if err != nil {
				return nil, err
			}
			s := r.groupShard[r.find(ni)]
			if r.states[ni] == stateParked {
				// First like: the comment joins its liker's group's shard.
				// (Pass A already unioned them, and the parked side has no
				// materialized entities, so no migration was triggered.)
				r.unpark(ni)
				p.q2[s] = append(p.q2[s], model.Change{Kind: model.KindAddComment, Comment: r.comment(ni)})
			}
			if ch.Kind == model.KindAddLike {
				r.adj[ni] = append(r.adj[ni], int32(ui))
			} else {
				r.adj[ni] = unlink(r.adj[ni], ui)
			}
			p.q2[s] = append(p.q2[s], ch)
			ps := hashShard(r.recs[ni].post, r.n)
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			ni, nj, err := r.lookup2(userKey(ch.Friendship.User1), userKey(ch.Friendship.User2))
			if err != nil {
				return nil, err
			}
			s := r.groupShard[r.find(ni)]
			if ch.Kind == model.KindAddFriendship {
				r.adj[ni] = append(r.adj[ni], int32(nj))
				r.adj[nj] = append(r.adj[nj], int32(ni))
			} else {
				r.adj[ni] = unlink(r.adj[ni], nj)
				r.adj[nj] = unlink(r.adj[nj], ni)
			}
			p.q2[s] = append(p.q2[s], ch)
			// Q1 ignores the friends graph entirely; not routed.
		default:
			return nil, fmt.Errorf("shard: unknown change kind %d", ch.Kind)
		}
	}
	return p, nil
}

// q1Snapshot builds shard s's Q1 partition of the initial snapshot: its
// hashed posts with their comment subtrees and likes, and every user (likes
// reference users, and users are too cheap to be worth partitioning for
// Q1). Friendships are omitted — Q1 never reads them.
func (r *router) q1Snapshot(snap *model.Snapshot, s int) *model.Snapshot {
	out := &model.Snapshot{Users: snap.Users}
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
		if hashShard(r.recs[r.nodeOf[nodeComment][l.CommentID]].post, r.n) == s {
			out.Likes = append(out.Likes, l)
		}
	}
	return out
}

// park adds a likeless comment node to the router-side parking.
func (r *router) park(ni int) {
	r.states[ni] = stateParked
	r.parkedRank.Set(ni, r.parkedEntry(ni))
}

// parkedEntry is a parked comment's ranking entry: likeless, it scores 0.
func (r *router) parkedEntry(ni int) core.Entry {
	return core.Entry{ID: r.ids[ni], Score: 0, Timestamp: r.recs[ni].timestamp}
}

// unpark materializes a parked comment into its group's partition at its
// first like.
func (r *router) unpark(ni int) {
	r.parkedRank.Remove(ni)
	r.states[ni] = stateMaterialized
	r.matCount[r.find(ni)]++
}

// parkedComments counts the parked comments.
func (r *router) parkedComments() int { return r.parkedRank.Len() }

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }

// q2Snapshot renders shard s's current Q2 partition from the store as a
// loadable snapshot: all posts (broadcast), plus the materialized users and
// comments whose group lives on s and the edges among them. It walks every
// router node, not just s's partition, so it costs O(router nodes) plus s's
// edges. Rendering writes to the union-find (find compresses paths), so it
// must not run concurrently with anything else on r. Used only at startup,
// to load each shard's Q2 engines.
func (r *router) q2Snapshot(s int) *model.Snapshot {
	out := &model.Snapshot{Posts: append([]model.Post(nil), r.posts...)}
	for ni, id := range r.ids {
		if r.states[ni] != stateMaterialized || int(r.groupShard[r.find(ni)]) != s {
			continue
		}
		if r.kinds[ni] == nodeUser {
			out.Users = append(out.Users, model.User{ID: id})
			for _, v := range r.adj[ni] {
				if vid := r.ids[v]; id < vid {
					out.Friendships = append(out.Friendships, model.Friendship{User1: id, User2: vid})
				}
			}
			continue
		}
		out.Comments = append(out.Comments, r.comment(ni))
		for _, u := range r.adj[ni] {
			out.Likes = append(out.Likes, model.Like{UserID: r.ids[u], CommentID: id})
		}
	}
	return out
}
