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
//     commits later" migration-free — donor rebuilds happen only when a
//     new edge genuinely merges two populated groups across shards.
//
// Removals (the future-work workload) never split router groups: a
// union-find cannot un-union, so the grouping over-approximates the true
// connectivity. Over-grouping only costs parallelism, never correctness —
// co-location requirements are monotone in the edge history.
//
// The router stores the Q2 partitions once, indexed by union-find node
// rather than per shard: a node's shard is groupShard[find(node)], its
// entity is in a partition iff it is materialized, and adj holds the edges
// Q2 reads (a comment's likers, a user's friends). A migration therefore
// moves nothing inside the router — re-stamping the merged root's shard
// moves the whole group — and a partition snapshot is rendered from the
// store on demand. Memory is proportional to the graph once, not to the
// graph plus a per-shard copy of it.
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

func newPlan(n int) *plan {
	return &plan{
		q1:  make([][]model.Change, n),
		q2:  make([][]model.Change, n),
		ops: make([][]shardOp, n),
	}
}

// hasRetraction reports whether shard s donates a group this commit.
func (p *plan) hasRetraction(s int) bool {
	for i := range p.ops[s] {
		if p.ops[s][i].retract != nil {
			return true
		}
	}
	return false
}

// router holds all partitioning state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	n int

	// Q1 routing.
	postShard   map[model.ID]int
	commentRoot map[model.ID]model.ID // comment → root post

	// posts is every post ever seen; posts are broadcast to all Q2
	// partitions (comments need their root to exist wherever they land).
	posts []model.Post

	// parked holds the likeless comments, which belong to no Q2 partition:
	// they score exactly 0, are ranked by parkedTopK as a virtual
	// partition, and materialize onto their first liker's shard.
	parked map[model.ID]model.Comment
	// parkedRank ranks the parked comments by node index, so park, unpark
	// and parkedTopK cost O(log n) instead of a walk of parked.
	parkedRank core.RankIndex

	// Union-find over users ∪ comments with per-root group state.
	node         map[nodeKey]int
	parent       []int
	keys         []nodeKey
	members      [][]int // valid at root: node indices in the group
	groupShard   []int   // valid at root
	matCount     []int   // valid at root: materialized members
	materialized []bool  // per node: the entity is in its group's Q2 partition

	// adj holds the Q2 edges per node: a comment node lists its likers, a
	// user node its friends (both directions). Node indices fit in int32
	// (addNode enforces it), half the size of an int.
	adj [][]int32
	// comments holds the records of materialized comments (parked ones
	// live in parked).
	comments map[model.ID]model.Comment

	rebalances int
}

func newRouter(n int, snap *model.Snapshot) (*router, error) {
	r := &router{
		n:           n,
		postShard:   make(map[model.ID]int, len(snap.Posts)),
		commentRoot: make(map[model.ID]model.ID, len(snap.Comments)),
		node:        make(map[nodeKey]int, len(snap.Users)+len(snap.Comments)),
		parked:      make(map[model.ID]model.Comment),
		comments:    make(map[model.ID]model.Comment),
	}

	for _, p := range snap.Posts {
		r.posts = append(r.posts, p)
		r.postShard[p.ID] = hashShard(p.ID, n)
	}
	for _, c := range snap.Comments {
		r.commentRoot[c.ID] = c.PostID
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
		if _, err := r.addNode(commentKey(c.ID), 0); err != nil {
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
	var parkedNodes []int
	for _, c := range snap.Comments {
		if ni := r.node[commentKey(c.ID)]; len(r.members[r.find(ni)]) == 1 {
			r.parked[c.ID] = c
			parkedNodes = append(parkedNodes, ni)
		} else {
			r.comments[c.ID] = c
		}
	}
	r.parkedRank.Init(parkedNodes, func(ni int) core.Entry { return parkedEntry(r.parked[r.keys[ni].id]) })
	roots := make([]int, 0)
	for i := range r.parent {
		if r.find(i) != i {
			continue
		}
		if len(r.members[i]) == 1 && r.keys[i].kind == nodeComment {
			continue
		}
		roots = append(roots, i)
	}
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := roots[a], roots[b]
		if len(r.members[ra]) != len(r.members[rb]) {
			return len(r.members[ra]) > len(r.members[rb])
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
		r.groupShard[root] = s
		load[s] += len(r.members[root])
		r.matCount[root] = len(r.members[root])
		for _, ni := range r.members[root] {
			r.materialized[ni] = true
		}
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
// outgrow the int32 adjacency lists.
func (r *router) addNode(k nodeKey, shard int) (int, error) {
	if ni, ok := r.node[k]; ok {
		return ni, nil
	}
	ni := len(r.parent)
	if ni >= math.MaxInt32 {
		return 0, fmt.Errorf("shard: router holds %d users and comments, the most it can index", ni)
	}
	r.node[k] = ni
	r.parent = append(r.parent, ni)
	r.keys = append(r.keys, k)
	r.members = append(r.members, []int{ni})
	r.groupShard = append(r.groupShard, shard)
	r.matCount = append(r.matCount, 0)
	r.materialized = append(r.materialized, false)
	r.adj = append(r.adj, nil)
	return ni, nil
}

func (r *router) find(x int) int {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

func (r *router) lookup(k nodeKey) (int, error) {
	ni, ok := r.node[k]
	if !ok {
		kind := "user"
		if k.kind == nodeComment {
			kind = "comment"
		}
		return 0, fmt.Errorf("shard: change references unknown %s %d", kind, k.id)
	}
	return ni, nil
}

func (r *router) minMemberKey(root int) nodeKey {
	min := r.keys[r.members[root][0]]
	for _, ni := range r.members[root][1:] {
		if r.keys[ni].less(min) {
			min = r.keys[ni]
		}
	}
	return min
}

// loadUnion merges groups during initial-snapshot analysis, before shards
// are assigned — no migration bookkeeping. It returns the two nodes.
func (r *router) loadUnion(a, b nodeKey) (int, int, error) {
	na, err := r.lookup(a)
	if err != nil {
		return 0, 0, err
	}
	nb, err := r.lookup(b)
	if err != nil {
		return 0, 0, err
	}
	if ra, rb := r.find(na), r.find(nb); ra != rb {
		r.mergeRoots(ra, rb, 0)
	}
	return na, nb, nil
}

// mergeRoots links two roots, concatenating the smaller member list into
// the larger (so members move O(log n) times over any union sequence), and
// stamps the merged root with the given shard.
func (r *router) mergeRoots(ra, rb, shard int) int {
	if len(r.members[ra]) < len(r.members[rb]) {
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	r.members[ra] = append(r.members[ra], r.members[rb]...)
	r.members[rb] = nil
	r.matCount[ra] += r.matCount[rb]
	r.groupShard[ra] = shard
	return ra
}

// union merges the groups of a and b during a commit. If the groups live on
// different shards, the side with fewer materialized entities migrates to
// the other side's shard: the donor is queued a retraction of the moved
// subgraph and the recipient synthetic add-changes replaying it.
func (r *router) union(a, b nodeKey, p *plan) error {
	na, err := r.lookup(a)
	if err != nil {
		return err
	}
	nb, err := r.lookup(b)
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
			(len(r.members[loser]) > len(r.members[winner]) ||
				(len(r.members[loser]) == len(r.members[winner]) && r.groupShard[loser] < r.groupShard[winner]))) {
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
// keyed delta, queued for the donor as a retraction (a core.DeltaEngine
// subtracts it; engines without the capability fall back to a reload) and
// for the recipient as synthetic add-changes. All materialized members of a
// group live on its shard and all their Q2-relevant edges are intra-group,
// so the member list and its adjacency describe a complete, self-contained
// subgraph — exactly the precondition DeltaEngine.Retract requires. The
// store itself needs no update: the caller re-stamps the merged root.
func (r *router) migrate(loser, dest int, p *plan) {
	src := r.groupShard[loser]
	ret := &model.Retraction{}
	var movedComments []model.Comment
	for _, ni := range r.members[loser] {
		if !r.materialized[ni] {
			continue
		}
		k := r.keys[ni]
		if k.kind == nodeUser {
			ret.Users = append(ret.Users, k.id)
			// Both endpoints of every moved friendship migrate together, so
			// the u < v half of the adjacency lists each edge exactly once.
			for _, v := range r.adj[ni] {
				if vid := r.keys[v].id; k.id < vid {
					ret.Friendships = append(ret.Friendships, model.Friendship{User1: k.id, User2: vid})
				}
			}
			continue
		}
		c := r.comments[k.id]
		ret.Comments = append(ret.Comments, c.ID)
		movedComments = append(movedComments, c)
		for _, u := range r.adj[ni] {
			ret.Likes = append(ret.Likes, model.Like{UserID: r.keys[u].id, CommentID: c.ID})
		}
	}

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
	p := newPlan(r.n)

	// Pass A: create nodes for new entities, union along new edges.
	for i := range cs.Changes {
		ch := &cs.Changes[i]
		switch ch.Kind {
		case model.KindAddUser:
			if _, err := r.addNode(userKey(ch.User.ID), hashShard(ch.User.ID, r.n)); err != nil {
				return nil, err
			}
		case model.KindAddComment:
			if _, err := r.addNode(commentKey(ch.Comment.ID), hashShard(ch.Comment.ID, r.n)); err != nil {
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
			r.postShard[ch.Post.ID] = s
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
			if !r.materialized[ni] {
				r.materialized[ni] = true
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
			// its node.
			ni, err := r.lookup(commentKey(ch.Comment.ID))
			if err != nil {
				return nil, err
			}
			r.park(ni, ch.Comment)
			r.commentRoot[ch.Comment.ID] = ch.Comment.PostID
			ps, err := r.q1ShardOfComment(ch.Comment.ID)
			if err != nil {
				return nil, err
			}
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddLike, model.KindRemoveLike:
			ni, err := r.lookup(commentKey(ch.Like.CommentID))
			if err != nil {
				return nil, err
			}
			ui, err := r.lookup(userKey(ch.Like.UserID))
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			s := r.groupShard[root]
			if c, wasParked := r.parked[ch.Like.CommentID]; wasParked {
				// First like: the comment joins its liker's group's shard.
				// (Pass A already unioned them, and the parked side has no
				// materialized entities, so no migration was triggered.)
				r.unpark(ni, c.ID)
				r.comments[c.ID] = c
				r.materialized[ni] = true
				r.matCount[root]++
				p.q2[s] = append(p.q2[s], model.Change{Kind: model.KindAddComment, Comment: c})
			}
			if ch.Kind == model.KindAddLike {
				r.adj[ni] = append(r.adj[ni], int32(ui))
			} else {
				r.adj[ni] = unlink(r.adj[ni], ui)
			}
			p.q2[s] = append(p.q2[s], ch)
			ps, err := r.q1ShardOfComment(ch.Like.CommentID)
			if err != nil {
				return nil, err
			}
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			ni, err := r.lookup(userKey(ch.Friendship.User1))
			if err != nil {
				return nil, err
			}
			nj, err := r.lookup(userKey(ch.Friendship.User2))
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

func (r *router) q1ShardOfComment(commentID model.ID) (int, error) {
	postID, ok := r.commentRoot[commentID]
	if !ok {
		return 0, fmt.Errorf("shard: like references unknown comment %d", commentID)
	}
	s, ok := r.postShard[postID]
	if !ok {
		return 0, fmt.Errorf("shard: comment %d roots at unknown post %d", commentID, postID)
	}
	return s, nil
}

// q1Snapshot builds shard s's Q1 partition of the initial snapshot: its
// hashed posts with their comment subtrees and likes, and every user (likes
// reference users, and users are too cheap to be worth partitioning for
// Q1). Friendships are omitted — Q1 never reads them.
func (r *router) q1Snapshot(snap *model.Snapshot, s int) *model.Snapshot {
	out := &model.Snapshot{Users: snap.Users}
	for _, p := range snap.Posts {
		if r.postShard[p.ID] == s {
			out.Posts = append(out.Posts, p)
		}
	}
	for _, c := range snap.Comments {
		if r.postShard[c.PostID] == s {
			out.Comments = append(out.Comments, c)
		}
	}
	for _, l := range snap.Likes {
		if r.postShard[r.commentRoot[l.CommentID]] == s {
			out.Likes = append(out.Likes, l)
		}
	}
	return out
}

// park adds a likeless comment, whose node is ni, to the router-side
// parking.
func (r *router) park(ni int, c model.Comment) {
	r.parked[c.ID] = c
	r.parkedRank.Set(ni, parkedEntry(c))
}

// parkedEntry is a parked comment's ranking entry: likeless, it scores 0.
func parkedEntry(c model.Comment) core.Entry {
	return core.Entry{ID: c.ID, Score: 0, Timestamp: c.Timestamp}
}

// unpark removes a comment at its first like.
func (r *router) unpark(ni int, id model.ID) {
	delete(r.parked, id)
	r.parkedRank.Remove(ni)
}

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }

// q2Snapshot renders shard s's current Q2 partition from the store as a
// loadable snapshot: all posts (broadcast), plus the materialized users and
// comments whose group lives on s and the edges among them. It walks every
// router node, not just s's partition: O(router nodes) plus s's edges. find compresses paths, so rendering writes to the
// union-find and must not run concurrently with anything else on r. Used at
// startup and for the reload fallback.
func (r *router) q2Snapshot(s int) *model.Snapshot {
	out := &model.Snapshot{Posts: append([]model.Post(nil), r.posts...)}
	for ni, k := range r.keys {
		if !r.materialized[ni] || r.groupShard[r.find(ni)] != s {
			continue
		}
		if k.kind == nodeUser {
			out.Users = append(out.Users, model.User{ID: k.id})
			for _, v := range r.adj[ni] {
				if vid := r.keys[v].id; k.id < vid {
					out.Friendships = append(out.Friendships, model.Friendship{User1: k.id, User2: vid})
				}
			}
			continue
		}
		out.Comments = append(out.Comments, r.comments[k.id])
		for _, u := range r.adj[ni] {
			out.Likes = append(out.Likes, model.Like{UserID: r.keys[u].id, CommentID: k.id})
		}
	}
	return out
}
