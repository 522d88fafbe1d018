package core

import (
	"math"
	"runtime"
	"slices"

	"repro/internal/grb"
	"repro/internal/model"
)

// Q2IncrementalCC realizes the paper's future-work item (2): instead of
// re-running connected components over each affected comment's induced
// subgraph, it maintains the components themselves incrementally (in the
// spirit of Ediger et al., "Tracking structure of streaming social
// networks"), under inserts and removals alike. Each comment keeps its
// likers sorted by user, one component label per like and the size of each
// label's component, in flat arrays, and its score Σ sizes²:
//
//   - a new like gives the user a singleton label and merges it with the
//     components of its friends among the comment's likers;
//   - a new friendship merges the endpoints' components in every comment
//     both users like — O(min(likes(u1), likes(u2))) membership probes;
//   - a merge relabels the smaller component, found by a search over the
//     comment's likers that stops once it has the component's size, and
//     adds 2·s₁·s₂ to the score;
//   - a removed friendship searches from both endpoints in lockstep in
//     every comment both users like: if the searches meet, nothing splits;
//     if one side runs out first, that side is a whole component, so it
//     takes a new label and the score gains s₁² + s₂² − (s₁+s₂)²;
//   - an unlike drops the user's like, then searches from all its former
//     neighbours in the comment at once, one liker per search per round;
//     searches that reach each other merge, a search that runs out is a
//     whole component and takes a new label, and the last one left keeps
//     the old label.
//
// A removal therefore costs the side that splits off, not the comment
// (Even & Shiloach, "An on-line edge-deletion problem", J. ACM 1981). A
// search expands a liker by walking its friends and probing the comment's
// likers, or by probing its friends for each of the comment's likers,
// whichever list is shorter, so a hub's friend list is never scanned for a
// small comment. The comments a change set touched are re-ranked in a
// RankIndex over every comment, so the top-3 costs O(|touched| log
// |comments|).
type Q2IncrementalCC struct {
	standalone
	part Part
	np   int // posts: not read for scoring; backs Stats().Posts

	// adj holds, by user index, the user's friends (ascending user
	// indices) and then the comments the user likes (comment indices, in
	// no order): one slice per user for both lists, split at nFriends.
	adj      [][]int32
	nFriends []int32
	// friendEdges and likeEdges are the total lengths of the two lists,
	// kept current by every handler so Stats is O(1).
	friendEdges, likeEdges int

	cc   []commentLabels
	rank RankIndex // by comment index
	prev Result

	touched []int32  // comments the current change set touched
	search  ccSearch // scratch of every component search
}

// commentLabels is one comment's connected components in flat arrays.
type commentLabels struct {
	likes []likeLabel // the comment's likers, ascending by user
	// sizes holds each label's component size. A free label holds ≤ 0:
	// minus one plus the next free label, so the free labels form a list
	// headed by free − 1 (free is 0 when the list is empty).
	sizes []int32
	free  int32
	score int64 // Σ sizes²
}

// likeLabel is one like of a comment: the liker and its component label.
type likeLabel struct{ user, label int32 }

// slot returns where user u is, or would be inserted, among c's likers and
// whether u likes c.
func (c *commentLabels) slot(u int32) (int, bool) { return c.slotFrom(0, u) }

// slotFrom is slot for a user known to sort at or after slot lo.
func (c *commentLabels) slotFrom(lo int, u int32) (int, bool) {
	hi := len(c.likes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.likes[m].user < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.likes) && c.likes[lo].user == u
}

// newLabel takes a free label, or a new one, for a component of the given
// size.
func (c *commentLabels) newLabel(size int32) int32 {
	if c.free == 0 {
		c.sizes = append(c.sizes, size)
		return int32(len(c.sizes) - 1)
	}
	l := c.free - 1
	c.free = -c.sizes[l]
	c.sizes[l] = size
	return l
}

// freeLabel returns a label whose component is gone to the free list.
func (c *commentLabels) freeLabel(l int32) {
	c.sizes[l] = -c.free
	c.free = l + 1
}

// ccSearch is the scratch of the searches over one comment's likers,
// reused across comments and commits: a search from one side or from two
// in lockstep.
type ccSearch struct {
	// mark holds, by slot, epoch when side 0 of the current search reached
	// the slot and epoch+1 when side 1 did; anything else is unvisited.
	mark  []uint32
	epoch uint32
	// side holds the slots each side reached, in order: its queue while the
	// search runs, its component once the side has run out.
	side [2][]int32
	// nbrs holds an unliked user's former neighbours while onUnlike
	// searches from them.
	nbrs []int32
	// The search from many neighbours (splitAll) keeps, by slot, the
	// neighbour whose search reached it (owner) and the next slot of its
	// list (link), and by neighbour a union-find parent and, at a root,
	// its merged search (group); live lists the searches still running.
	owner, link []int32
	parent      []int32
	group       []ccGroup
	live        []int32
}

// ccGroup is one running search of splitAll: the slots it has still to
// expand and those it has expanded, as lists linked through
// ccSearch.link (−1 ends a list).
type ccGroup struct {
	todo, todoTail int32
	done, doneTail int32
}

// begin starts a search over a comment with n likers.
func (q *ccSearch) begin(n int) {
	if len(q.mark) < n {
		q.mark = make([]uint32, n+n/4)
		q.epoch = 0
	}
	if q.epoch >= math.MaxUint32-2 {
		clear(q.mark)
		q.epoch = 0
	}
	q.epoch += 2
	q.side[0], q.side[1] = q.side[0][:0], q.side[1][:0]
}

// visit marks slot k as reached by side s and queues it.
func (q *ccSearch) visit(s, k int) {
	q.mark[k] = q.epoch + uint32(s)
	q.side[s] = append(q.side[s], int32(k))
}

// NewQ2IncrementalCC returns the incremental-connected-components Q2
// engine.
func NewQ2IncrementalCC() *Q2IncrementalCC {
	s := &Q2IncrementalCC{}
	s.self = s
	return s
}

// Name implements Solution.
func (*Q2IncrementalCC) Name() string { return "GraphBLAS Incremental (incremental CC)" }

// Query implements Solution.
func (*Q2IncrementalCC) Query() string { return "Q2" }

// Attach implements Engine. It builds the friend lists, each comment's
// sorted liker list and each user's like list in arrays shared by all
// entities, then labels each comment's components by one search from each
// unlabelled liker. Comments are labelled on runtime.GOMAXPROCS(0)
// workers, as Q2Incremental.Initial scores them, each worker searching in
// scratch of its own; the updates reuse the first worker's. The per-user
// and per-comment slices get a quarter more room than the part needs, as
// RankIndex.Init does, so the first users and comments an update adds do
// not copy them.
func (s *Q2IncrementalCC) Attach(p Part, refs []model.Ref) error {
	s.part = p
	var nc, nu, nFriendships, nLikes int
	for _, r := range refs {
		switch r.Kind {
		case model.KindAddPost:
			s.np++
		case model.KindAddComment:
			nc++
		case model.KindAddUser:
			nu++
		case model.KindAddFriendship:
			nFriendships++
		case model.KindAddLike:
			nLikes++
		}
	}

	ends := make([]int32, 0, 2*nFriendships)
	perUser := make([]int32, nu) // list lengths: friends, then likes
	type like struct{ comment, user int32 }
	resolved := make([]like, 0, nLikes)
	perComment := make([]int32, nc+1)
	for _, r := range refs {
		switch r.Kind {
		case model.KindAddFriendship:
			ends = append(ends, r.A, r.B)
			perUser[r.A]++
			perUser[r.B]++
		case model.KindAddLike:
			resolved = append(resolved, like{r.B, r.A})
			perComment[r.B+1]++
		}
	}
	for ci := 0; ci < nc; ci++ {
		perComment[ci+1] += perComment[ci]
	}
	likes := make([]likeLabel, len(resolved))
	next := slices.Clone(perComment[:nc])
	for _, l := range resolved {
		likes[next[l.comment]] = likeLabel{user: l.user, label: -1}
		next[l.comment]++
	}
	s.cc = make([]commentLabels, nc, nc+nc/4)
	for ci := range s.cc {
		c := &s.cc[ci]
		lo, hi := perComment[ci], perComment[ci+1]
		ls := likes[lo:hi:hi]
		slices.SortFunc(ls, func(x, y likeLabel) int { return int(x.user - y.user) })
		c.likes = slices.CompactFunc(ls, func(x, y likeLabel) bool { return x.user == y.user })
		for _, l := range c.likes {
			perUser[l.user]++
		}
		s.likeEdges += len(c.likes)
	}

	s.adj = carve(perUser)
	for i := 0; i < len(ends); i += 2 {
		a, b := ends[i], ends[i+1]
		s.adj[a] = append(s.adj[a], b)
		s.adj[b] = append(s.adj[b], a)
	}
	s.nFriends = make([]int32, nu, cap(s.adj))
	for u, fs := range s.adj {
		slices.Sort(fs)
		s.adj[u] = slices.Compact(fs)
		s.nFriends[u] = int32(len(s.adj[u]))
		s.friendEdges += len(s.adj[u])
	}
	// Every user's like list is filled first: the labelling reads the
	// users' lists on several goroutines, so nothing may append to them
	// meanwhile.
	for ci := range s.cc {
		for _, l := range s.cc[ci].likes {
			s.adj[l.user] = append(s.adj[l.user], int32(ci))
		}
	}
	// A comment has at most one label per like, so comment ci's labels
	// take a prefix of sizes[first[ci]:first[ci+1]], its likes' stretch of
	// one array. Each worker labels whole comments in its own search.
	sizes := make([]int32, s.likeEdges)
	first := make([]int32, nc+1)
	for ci := range s.cc {
		first[ci+1] = first[ci] + int32(len(s.cc[ci].likes))
	}
	searches := make([]ccSearch, runtime.GOMAXPROCS(0))
	grb.ParallelItems(nc, len(searches), func(w, ci int) {
		s.label(&searches[w], &s.cc[ci], sizes[first[ci]:first[ci+1]])
	})
	s.search = searches[0]
	return nil
}

// label labels c's components by one search from each unlabelled liker, in
// q, numbering them in the order of their first likers; their sizes go to
// the front of sizes, which c keeps.
func (s *Q2IncrementalCC) label(q *ccSearch, c *commentLabels, sizes []int32) {
	n := 0
	for k := range c.likes {
		if c.likes[k].label >= 0 {
			continue
		}
		comp := s.collect(q, c, k, len(c.likes))
		for _, y := range comp {
			c.likes[y].label = int32(n)
		}
		sizes[n] = int32(len(comp))
		n++
		c.score += int64(len(comp)) * int64(len(comp))
	}
	c.sizes = sizes[:n:n]
}

// carve returns one empty list per count, each a slice of one shared
// array with room for exactly its count, so filling the lists allocates
// nothing more. The outer slice has a quarter more room, for the lists of
// users added later.
func carve(counts []int32) [][]int32 {
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	backing := make([]int32, total)
	lists := make([][]int32, len(counts), len(counts)+len(counts)/4)
	off := 0
	for i, n := range counts {
		lists[i] = backing[off : off : off+int(n)]
		off += int(n)
	}
	return lists
}

// forNeighbours calls f with the slot of every liker of c that is a friend
// of the liker at slot x, in slot order, until f returns false. Both lists
// are ascending, so it walks the shorter one and searches the longer one
// from where the previous search ended: x's friends probing c's likers, or
// c's likers probing x's friends.
func (s *Q2IncrementalCC) forNeighbours(c *commentLabels, x int, f func(y int) bool) {
	fs := s.friendsOf(c.likes[x].user)
	if len(fs) <= len(c.likes) {
		lo := 0
		for _, v := range fs {
			k, ok := c.slotFrom(lo, v)
			lo = k
			if ok && !f(k) {
				return
			}
		}
		return
	}
	lo := 0
	for y := range c.likes {
		k, ok := slices.BinarySearch(fs[lo:], c.likes[y].user)
		lo += k
		if ok && !f(y) {
			return
		}
	}
}

// collect returns the slots of the component of c's liker at slot x: a
// search over friendships among the likers that carry x's label, which
// stops once it has reached limit likers (the component's size, when it is
// known), in search q. The slice is q's scratch.
func (s *Q2IncrementalCC) collect(q *ccSearch, c *commentLabels, x, limit int) []int32 {
	q.begin(len(c.likes))
	l := c.likes[x].label
	q.visit(0, x)
	for head := 0; head < len(q.side[0]) && len(q.side[0]) < limit; head++ {
		s.forNeighbours(c, int(q.side[0][head]), func(y int) bool {
			if q.mark[y] != q.epoch && c.likes[y].label == l {
				q.visit(0, y)
			}
			return len(q.side[0]) < limit
		})
	}
	return q.side[0]
}

// union merges the components of c's likers at slots x and y, if they
// differ, by relabelling the smaller one.
func (s *Q2IncrementalCC) union(c *commentLabels, x, y int) {
	lx, ly := c.likes[x].label, c.likes[y].label
	if lx == ly {
		return
	}
	if c.sizes[lx] > c.sizes[ly] {
		x, lx, ly = y, ly, lx
	}
	sx, sy := c.sizes[lx], c.sizes[ly]
	for _, k := range s.collect(&s.search, c, x, int(sx)) {
		c.likes[k].label = ly
	}
	c.sizes[ly] = sx + sy
	c.freeLabel(lx)
	c.score += 2 * int64(sx) * int64(sy)
}

// split runs after a friendship between c's likers at slots x and y, which
// share a label, is gone: it searches from both in lockstep, one liker per
// side per round. If the searches meet, x and y are still connected. If one
// side runs out first, it is a whole component: it takes a new label, and
// the score drops by 2·s₁·s₂.
//
// splitAll with x and y as its two seeds gives the same labels, but split
// is kept beside it because it is faster for this two-seed case: routing
// friendship removals through splitAll passed FuzzQ2CCStream (30 s) yet
// slowed BenchmarkUpdateScaling/q2cc/rf35 (-benchtime 3x, 6 interleaved
// runs per side, 2 vCPUs) from a median 783 to 872 ns/change at sf 8
// (slower in 6 of 6 pairs) and from 4,836 to 5,682 ns/change at sf 128
// (slower in 5 of 6 pairs, tied in the sixth).
func (s *Q2IncrementalCC) split(c *commentLabels, x, y int) {
	q := &s.search
	q.begin(len(c.likes))
	l := c.likes[x].label
	q.visit(0, x)
	q.visit(1, y)
	var head [2]int
	for {
		for side := 0; side < 2; side++ {
			met := false
			mine, theirs := q.epoch+uint32(side), q.epoch+uint32(1-side)
			s.forNeighbours(c, int(q.side[side][head[side]]), func(z int) bool {
				switch q.mark[z] {
				case mine:
				case theirs:
					met = true
				default:
					if c.likes[z].label == l {
						q.visit(side, z)
					}
				}
				return !met
			})
			if met {
				return
			}
			if head[side]++; head[side] == len(q.side[side]) {
				s.relabel(c, q.side[side], l)
				return
			}
		}
	}
}

// splitAll runs after a liker whose former neighbours in c, at slots nbrs,
// all carry label l has left c: it searches from every neighbour at once,
// one liker per search per round. A search that reaches a liker another
// search reached absorbs that search; a search that runs out has reached a
// whole component, which takes a new label. Once one search is left, it
// keeps l. Every liker is expanded at most once, so a liker with many
// friends among the likers costs about one expansion per neighbour, not a
// pairwise search per neighbour.
func (s *Q2IncrementalCC) splitAll(c *commentLabels, nbrs []int32, l int32) {
	q := &s.search
	q.begin(len(c.likes))
	if len(q.owner) < len(c.likes) {
		q.owner = make([]int32, len(q.mark))
		q.link = make([]int32, len(q.mark))
	}
	q.parent, q.group, q.live = q.parent[:0], q.group[:0], q.live[:0]
	for i, k := range nbrs {
		q.mark[k], q.owner[k], q.link[k] = q.epoch, int32(i), -1
		q.parent = append(q.parent, int32(i))
		q.group = append(q.group, ccGroup{todo: k, todoTail: k, done: -1, doneTail: -1})
		q.live = append(q.live, int32(i))
	}
	groups := len(nbrs)
	for groups > 1 {
		n := 0
		for _, g := range q.live {
			if groups == 1 {
				break
			}
			if q.find(g) != g {
				continue // absorbed by another search
			}
			gr := &q.group[g]
			if gr.todo < 0 {
				comp := q.side[0][:0]
				for k := gr.done; k >= 0; k = q.link[k] {
					comp = append(comp, k)
				}
				q.side[0] = comp
				s.relabel(c, comp, l)
				groups--
				continue
			}
			x := gr.todo
			if gr.todo = q.link[x]; gr.todo < 0 {
				gr.todoTail = -1
			}
			q.link[x] = -1
			if gr.doneTail < 0 {
				gr.done = x
			} else {
				q.link[gr.doneTail] = x
			}
			gr.doneTail = x
			s.forNeighbours(c, int(x), func(y int) bool {
				switch {
				case c.likes[y].label != l:
				case q.mark[y] != q.epoch:
					q.mark[y], q.owner[y], q.link[y] = q.epoch, g, -1
					q.push(gr, int32(y))
				default:
					if h := q.find(q.owner[y]); h != g {
						q.absorb(g, h)
						groups--
					}
				}
				return groups > 1
			})
			q.live[n] = g
			n++
		}
		q.live = q.live[:n]
	}
}

// find returns the root of neighbour i's merged search.
func (q *ccSearch) find(i int32) int32 {
	for q.parent[i] != i {
		q.parent[i] = q.parent[q.parent[i]]
		i = q.parent[i]
	}
	return i
}

// push appends slot k to group gr's slots to expand.
func (q *ccSearch) push(gr *ccGroup, k int32) {
	if gr.todoTail < 0 {
		gr.todo = k
	} else {
		q.link[gr.todoTail] = k
	}
	gr.todoTail = k
}

// absorb merges search h into search g: g's lists gain h's.
func (q *ccSearch) absorb(g, h int32) {
	q.parent[h] = g
	a, b := &q.group[g], &q.group[h]
	a.todo, a.todoTail = q.concat(a.todo, a.todoTail, b.todo, b.todoTail)
	a.done, a.doneTail = q.concat(a.done, a.doneTail, b.done, b.doneTail)
}

// concat joins two linked lists, given by head and tail, in O(1).
func (q *ccSearch) concat(h1, t1, h2, t2 int32) (int32, int32) {
	switch {
	case h1 < 0:
		return h2, t2
	case h2 < 0:
		return h1, t1
	}
	q.link[t1] = h2
	return h1, t2
}

// relabel moves the likers at slots comp, a component split off label l,
// to a new label.
func (s *Q2IncrementalCC) relabel(c *commentLabels, comp []int32, l int32) {
	n := int32(len(comp))
	nl := c.newLabel(n)
	for _, k := range comp {
		c.likes[k].label = nl
	}
	rest := c.sizes[l] - n
	c.sizes[l] = rest
	c.score -= 2 * int64(n) * int64(rest)
}

// onLike ingests a likes edge (comment ci ← user ui).
func (s *Q2IncrementalCC) onLike(ci, ui int) {
	c := &s.cc[ci]
	k, dup := c.slot(int32(ui))
	if dup {
		return
	}
	c.likes = slices.Insert(c.likes, k, likeLabel{user: int32(ui), label: c.newLabel(1)})
	c.score++ // new singleton: +1²
	s.forNeighbours(c, k, func(y int) bool {
		s.union(c, k, y)
		return true
	})
	s.adj[ui] = append(s.adj[ui], int32(ci))
	s.likeEdges++
	s.touched = append(s.touched, int32(ci))
}

// onUnlike ingests a like removal: the user's like leaves the comment, and
// its former neighbours there, which all shared its label, are searched
// from all at once for the pieces its removal split apart (splitAll).
func (s *Q2IncrementalCC) onUnlike(ci, ui int) {
	c := &s.cc[ci]
	k, ok := c.slot(int32(ui))
	if !ok {
		return
	}
	l := c.likes[k].label
	nbrs := s.search.nbrs[:0] // their slots once the like is gone
	s.forNeighbours(c, k, func(y int) bool {
		if y > k {
			y--
		}
		nbrs = append(nbrs, int32(y))
		return true
	})
	s.search.nbrs = nbrs
	c.likes = slices.Delete(c.likes, k, k+1)
	size := c.sizes[l]
	c.score -= 2*int64(size) - 1 // s² → (s−1)²
	if size == 1 {
		c.freeLabel(l)
	} else {
		c.sizes[l] = size - 1
	}
	if len(nbrs) > 1 {
		s.splitAll(c, nbrs, l)
	}
	likes := s.likesOf(ui)
	likes[slices.Index(likes, int32(ci))] = likes[len(likes)-1]
	s.adj[ui] = s.adj[ui][:len(s.adj[ui])-1]
	s.likeEdges--
	s.touched = append(s.touched, int32(ci))
}

// onFriendship ingests an undirected friends edge: the endpoints'
// components merge in every comment both users like.
func (s *Q2IncrementalCC) onFriendship(a, b int) {
	if a == b || !s.addFriend(a, b) {
		return // a self-friendship joins nothing; or already friends
	}
	s.addFriend(b, a)
	s.friendEdges += 2
	s.forCoLiked(a, b, s.union)
}

// onUnfriend ingests a friendship removal: in every comment both users
// still like, the edge may have held their component together.
func (s *Q2IncrementalCC) onUnfriend(a, b int) {
	if !s.dropFriend(a, b) {
		return // not friends
	}
	s.dropFriend(b, a)
	s.friendEdges -= 2
	s.forCoLiked(a, b, s.split)
}

// forCoLiked calls f(c, slot of a, slot of b) for every comment c both
// users like, and touches it: it walks the like list of the user with fewer
// likes and probes each comment's likers for the other user —
// O(min(likes(a), likes(b)) · log likers), no allocation, so a hub's long
// like list is never scanned for a rare liker's friendship.
func (s *Q2IncrementalCC) forCoLiked(a, b int, f func(c *commentLabels, ka, kb int)) {
	if len(s.likesOf(b)) < len(s.likesOf(a)) {
		a, b = b, a
	}
	for _, ci := range s.likesOf(a) {
		c := &s.cc[ci]
		if kb, ok := c.slot(int32(b)); ok {
			ka, _ := c.slot(int32(a))
			f(c, ka, kb)
			s.touched = append(s.touched, ci)
		}
	}
}

// friendsOf is user u's friends, ascending.
func (s *Q2IncrementalCC) friendsOf(u int32) []int32 { return s.adj[u][:s.nFriends[u]] }

// likesOf is the comments user u likes.
func (s *Q2IncrementalCC) likesOf(u int) []int32 { return s.adj[u][s.nFriends[u]:] }

// addFriend adds b to a's friends unless it is there already, and reports
// whether it did.
func (s *Q2IncrementalCC) addFriend(a, b int) bool {
	k, found := slices.BinarySearch(s.friendsOf(int32(a)), int32(b))
	if found {
		return false
	}
	s.adj[a] = slices.Insert(s.adj[a], k, int32(b))
	s.nFriends[a]++
	return true
}

// dropFriend removes b from a's friends and reports whether it was there.
func (s *Q2IncrementalCC) dropFriend(a, b int) bool {
	k, found := slices.BinarySearch(s.friendsOf(int32(a)), int32(b))
	if !found {
		return false
	}
	s.adj[a] = slices.Delete(s.adj[a], k, k+1)
	s.nFriends[a]--
	return true
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
	c := s.part.comment(ci)
	return Entry{ID: c.ID, Score: s.cc[ci].score, Timestamp: c.Timestamp}
}

// UpdateRefs implements Engine: feed each change through its event
// handler, then re-rank the touched comments.
func (s *Q2IncrementalCC) UpdateRefs(refs []model.Ref) (Result, error) {
	s.touched = s.touched[:0]
	for _, r := range refs {
		a, b := int(r.A), int(r.B)
		switch r.Kind {
		case model.KindAddPost:
			s.np++
		case model.KindAddUser:
			s.adj = append(s.adj, nil)
			s.nFriends = append(s.nFriends, 0)
		case model.KindAddComment:
			s.cc = append(s.cc, commentLabels{})
			s.touched = append(s.touched, int32(a))
		case model.KindAddLike:
			s.onLike(b, a)
		case model.KindRemoveLike:
			s.onUnlike(b, a)
		case model.KindAddFriendship:
			s.onFriendship(a, b)
		case model.KindRemoveFriendship:
			s.onUnfriend(a, b)
		}
	}
	slices.Sort(s.touched)
	for _, ci := range slices.Compact(s.touched) {
		s.rank.Set(int(ci), s.entry(int(ci)))
	}
	s.prev = s.rank.Top(TopK)
	return s.prev, nil
}
