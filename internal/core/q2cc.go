package core

import (
	"fmt"
	"math"
	"slices"

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
// RankHeap over the held comments, so the top-3 costs O(|touched| log
// |comments|).
//
// A comment nobody has liked scores exactly 0, and most comments are
// never liked (90% at sf 32), so the engine holds labels only for the
// comments someone has liked and parks the rest: it numbers the held
// comments compactly, in the order they were first liked, and ranks the
// parked ones in a RankHeap of their bare State indices, read back through
// nodes. A comment joins the held ones at its first like and stays held,
// even once unliked back to no like. The answer ranks both sets'
// candidates through one Ranker.
type Q2IncrementalCC struct {
	standalone
	nodes Nodes
	np    int // posts: not read for scoring; backs Stats().Posts

	// of holds each held comment's State index, by local index; local
	// holds each State comment's local index, or −1 while it is parked.
	of, local []int32
	parked    RankHeap[struct{}, byComment]

	// adj holds, by user index, the user's friends (ascending user
	// indices) and then the comments the user likes (local comment
	// indices, in no order): one slice per user for both lists, split at nFriends.
	adj      [][]int32
	nFriends []int32
	// friendEdges and likeEdges are the total lengths of the two lists,
	// kept current by every handler so Stats is O(1).
	friendEdges, likeEdges int

	cc   []commentLabels
	rank RankHeap[Entry, byEntry] // by local comment index

	touched []int32  // local comments the current change set touched
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
	parent      forest
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

// Attach implements Engine. It numbers the liked comments and parks the
// rest (number), then counts and fills from v's edge keys,
// which hold each edge once, the friend lists, each comment's sorted liker
// list and each user's like list in arrays shared by all entities, then
// labels every comment's components at once by union-find
// over all likes (Tarjan, J. ACM 1975): each like has a global slot, its
// comment's first slot plus its place among the comment's likers, and for
// each friendship the two users' like lists, both ascending by comment,
// are joined by walking the shorter and binary-searching the longer; each
// comment the users share unites their two slots, the lower slot staying
// the root. A comment's lowest slot in each component is therefore its
// root, so one pass in slot order numbers each comment's components in
// the order of their first likers, as a search from each unlabelled liker
// would. The per-user and per-comment slices get a quarter more room than
// the View needs, as rankAll does, so the first users and comments
// an update adds do not copy them.
func (s *Q2IncrementalCC) Attach(nodes Nodes, v *model.View) error {
	s.nodes = nodes
	s.np = v.Len(model.KeyPost)
	s.number(v)
	nc, nu := len(s.of), v.Len(model.KeyUser)
	nf, nl := v.Len(model.KeyFriendship), v.Len(model.KeyLike)

	// perUser counts each user's friends and likes, liked its likes alone;
	// perComment[ci] is comment ci's first global slot.
	perUser, liked := make([]int32, nu), make([]int32, nu)
	for k := 0; k < nf; k++ {
		a, b := v.Friendship(k)
		perUser[a]++
		perUser[b]++
	}
	perComment := make([]int32, nc+1)
	for k := 0; k < nl; k++ {
		u, c := v.Like(k)
		perComment[s.local[c]+1]++
		perUser[u]++
		liked[u]++
	}
	for ci := 0; ci < nc; ci++ {
		perComment[ci+1] += perComment[ci]
	}
	likes := make([]likeLabel, nl)
	next := slices.Clone(perComment[:nc])
	for k := 0; k < nl; k++ {
		u, c := v.Like(k)
		c = s.local[c]
		likes[next[c]] = likeLabel{user: u, label: -1}
		next[c]++
	}
	s.cc = make([]commentLabels, nc, nc+nc/4)
	for ci := range s.cc {
		lo, hi := perComment[ci], perComment[ci+1]
		s.cc[ci].likes = likes[lo:hi:hi]
		slices.SortFunc(s.cc[ci].likes, func(x, y likeLabel) int { return int(x.user - y.user) })
	}
	s.likeEdges, s.friendEdges = nl, 2*nf

	s.adj = carve(perUser)
	for k := 0; k < nf; k++ {
		a, b := v.Friendship(k)
		s.adj[a] = append(s.adj[a], b)
		s.adj[b] = append(s.adj[b], a)
	}
	s.nFriends = make([]int32, nu, cap(s.adj))
	for u, fs := range s.adj {
		slices.Sort(fs)
		s.nFriends[u] = int32(len(fs))
	}
	// Each user's likes, ascending by comment, and beside them their
	// global slots.
	slots := carve(liked)
	for ci := range s.cc {
		for k, l := range s.cc[ci].likes {
			s.adj[l.user] = append(s.adj[l.user], int32(ci))
			slots[l.user] = append(slots[l.user], perComment[ci]+int32(k))
		}
	}
	parent := make(forest, s.likeEdges)
	for k := range parent {
		parent[k] = int32(k)
	}
	for u := range s.adj {
		for _, v := range s.friendsOf(int32(u)) {
			if int(v) > u {
				s.joinLikes(parent, slots, int32(u), v)
			}
		}
	}
	// A comment has at most one label per like, so comment ci's labels
	// take a prefix of sizes[perComment[ci]:perComment[ci+1]], its likes'
	// stretch of one array.
	sizes := make([]int32, s.likeEdges)
	for ci := range s.cc {
		c := &s.cc[ci]
		lo := perComment[ci]
		n := int32(0)
		for k := range c.likes {
			if r := parent.find(lo + int32(k)); r == lo+int32(k) {
				c.likes[k].label = n
				n++
			} else {
				c.likes[k].label = c.likes[r-lo].label
			}
			sizes[lo+c.likes[k].label]++
		}
		c.sizes = sizes[lo : lo+n : lo+n]
		for _, z := range c.sizes {
			c.score += int64(z) * int64(z)
		}
	}
	return nil
}

// number numbers the comments some like of v reaches, in State order, and
// parks the rest. The parked slots become the parked heap's storage, and
// of gets its room, with a quarter more room for the comments that park
// or join next.
func (s *Q2IncrementalCC) number(v *model.View) {
	s.local = make([]int32, v.Len(model.KeyComment))
	liked := 0
	for k, n := 0, v.Len(model.KeyLike); k < n; k++ {
		_, c := v.Like(k)
		if s.local[c] == 0 {
			s.local[c] = 1
			liked++
		}
	}
	rest := len(s.local) - liked
	s.of = make([]int32, 0, liked+liked/4)
	parked := make([]Slot[struct{}], 0, rest+rest/4)
	for ci, l := range s.local {
		if l == 0 {
			s.local[ci] = -1
			parked = append(parked, Slot[struct{}]{Key: int32(ci)})
			continue
		}
		s.local[ci] = int32(len(s.of))
		s.of = append(s.of, int32(ci))
	}
	s.parked.Init(byComment{s.nodes}, parked)
}

// held returns State comment c's local index. A parked comment first
// joins the held ones: it leaves the parked heap and takes the next local
// index, with no likes yet, and is touched.
func (s *Q2IncrementalCC) held(c int32) int {
	if s.local[c] < 0 {
		s.local[c] = int32(len(s.of))
		s.of = append(s.of, c)
		s.parked.Remove(int(c))
		s.cc = append(s.cc, commentLabels{})
		s.touched = append(s.touched, s.local[c])
	}
	return int(s.local[c])
}

// ParkedComments checks the engine's comment numbering against its own
// invariants and returns, by State index, whether each comment is parked.
// The invariants: of and local are inverse maps over the held comments,
// each held comment has its labels, and the parked heap holds exactly the
// comments with no local index. It reads every comment; tests call it
// after each change set.
func (s *Q2IncrementalCC) ParkedComments() ([]bool, error) {
	if len(s.cc) != len(s.of) {
		return nil, fmt.Errorf("%d held comments, %d with labels", len(s.of), len(s.cc))
	}
	parked := make([]bool, len(s.local))
	n := 0
	for c, l := range s.local {
		inHeap := c < len(s.parked.pos) && s.parked.pos[c] != 0
		switch {
		case l < 0:
			parked[c] = true
			n++
			if !inHeap {
				return nil, fmt.Errorf("comment %d is parked but not in the parked heap", c)
			}
		case inHeap:
			return nil, fmt.Errorf("held comment %d is in the parked heap", c)
		case int(l) >= len(s.of) || s.of[l] != int32(c):
			return nil, fmt.Errorf("comment %d: local index %d does not lead back to it", c, l)
		}
	}
	if n != s.parked.Len() || len(s.local)-n != len(s.of) {
		return nil, fmt.Errorf("%d parked and %d held of %d comments; the heap holds %d",
			n, len(s.of), len(s.local), s.parked.Len())
	}
	return parked, nil
}

// byComment ranks the parked comments, each slot keyed by its State index,
// by their entries read through nodes: likeless, each scores 0.
type byComment struct{ nodes Nodes }

func (o byComment) Entry(x Slot[struct{}]) Entry { return commentEntry(o.nodes, int(x.Key), 0) }

func (o byComment) Less(a, b Slot[struct{}]) bool { return Less(o.Entry(a), o.Entry(b)) }

// joinLikes unites, in parent, the slots of users u's and v's likes of
// every comment both like. Both like lists ascend by comment, so it walks
// the shorter one and binary-searches the longer one from where the
// previous search ended; slots holds each user's likes' global slots.
func (s *Q2IncrementalCC) joinLikes(parent forest, slots [][]int32, u, v int32) {
	a, b := s.likesOf(int(u)), s.likesOf(int(v))
	sa, sb := slots[u], slots[v]
	if len(b) < len(a) {
		a, b, sa, sb = b, a, sb, sa
	}
	lo := 0
	for i, ci := range a {
		k, ok := slices.BinarySearch(b[lo:], ci)
		lo += k
		if ok {
			parent.union(sa[i], sb[lo])
		} else if lo == len(b) {
			return
		}
	}
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
			if q.parent.find(g) != g {
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
					if h := q.parent.find(q.owner[y]); h != g {
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

// forest is a union-find parent array: i is a root when forest[i] == i.
type forest []int32

// find returns the root of i's set, halving the path.
func (f forest) find(i int32) int32 {
	for f[i] != i {
		f[i] = f[f[i]]
		i = f[i]
	}
	return i
}

// union merges the sets of i and j under the lower of their roots, so
// each set's root is its lowest element.
func (f forest) union(i, j int32) {
	ri, rj := f.find(i), f.find(j)
	if ri > rj {
		ri, rj = rj, ri
	}
	f[rj] = ri
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
	k, _ := c.slot(int32(ui))
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
	k, _ := c.slot(int32(ui))
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
	s.addFriend(a, b)
	s.addFriend(b, a)
	s.friendEdges += 2
	s.forCoLiked(a, b, s.union)
}

// onUnfriend ingests a friendship removal: in every comment both users
// still like, the edge may have held their component together.
func (s *Q2IncrementalCC) onUnfriend(a, b int) {
	s.dropFriend(a, b)
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

// addFriend adds b to a's friends.
func (s *Q2IncrementalCC) addFriend(a, b int) {
	k, _ := slices.BinarySearch(s.friendsOf(int32(a)), int32(b))
	s.adj[a] = slices.Insert(s.adj[a], k, int32(b))
	s.nFriends[a]++
}

// dropFriend removes b from a's friends.
func (s *Q2IncrementalCC) dropFriend(a, b int) {
	k, _ := slices.BinarySearch(s.friendsOf(int32(a)), int32(b))
	s.adj[a] = slices.Delete(s.adj[a], k, k+1)
	s.nFriends[a]--
}

// Initial implements Solution: scores are already maintained, so the first
// evaluation just fills the rank heap.
func (s *Q2IncrementalCC) Initial() (Result, error) {
	rankAll(&s.rank, len(s.cc), s.entry)
	return s.top(), nil
}

// entry is held comment ci's ranking entry at its maintained score.
func (s *Q2IncrementalCC) entry(ci int) Entry {
	return commentEntry(s.nodes, int(s.of[ci]), s.cc[ci].score)
}

// top ranks the best held comments and the best parked ones through one
// Ranker.
func (s *Q2IncrementalCC) top() Result {
	t := Ranker{k: TopK, entries: make(Result, 0, TopK)}
	s.rank.feed(&t)
	s.parked.feed(&t)
	return t.entries
}

// UpdateRefs implements Engine: feed each change through its event
// handler, then re-rank the touched comments. A new comment parks. The
// handlers trust the refs, as the State that resolved them checked them:
// an add is of an edge not yet held, a removal of a held one, and a
// friendship joins two distinct users; so an unlike is of a held comment.
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
			s.local = append(s.local, -1)
			s.parked.Set(Slot[struct{}]{Key: r.A})
		case model.KindAddLike:
			s.onLike(s.held(r.B), a)
		case model.KindRemoveLike:
			s.onUnlike(int(s.local[r.B]), a)
		case model.KindAddFriendship:
			s.onFriendship(a, b)
		case model.KindRemoveFriendship:
			s.onUnfriend(a, b)
		}
	}
	slices.Sort(s.touched)
	for _, ci := range slices.Compact(s.touched) {
		s.rank.Set(Slot[Entry]{Val: s.entry(int(ci)), Key: ci})
	}
	return s.top(), nil
}
