package model

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// State is the validated, materialized model: the one table of node
// indices every layer uses, keyed edge indexes for referential integrity,
// and the posts and comments themselves. NewState and Apply are the only
// code that enforces the integrity rules; Validate, the serving writer and
// WAL replay all go through them.
//
// Posts, comments and users each live in an IDMap, the only record of
// their ids: a node's index is its insertion order, and the sharded
// runtime and the engines index by it (the paper's solution maps TTC ids
// to 0..n−1 matrix indices once, at load time; this is that map).
// Nodes are never removed, so the indices are stable and a reply always
// follows its parent. Beside the ids, a post keeps only its timestamp (8
// bytes) and a comment its timestamp, its parent's index among the
// comments (−1 for a direct reply) and its root post's index (16 bytes);
// Post and Comment rebuild the records from those.
// Each edge family is one flat index, the only record of its edges: the
// key of every edge, its endpoints' index pair packed into a uint64, and
// an open-addressing table of int32 slots over those keys, as IDMap's over
// ids (13–19 bytes per edge, against 23–26 for a Go map to the position).
// Removing an edge is a lookup plus a swap of its key with the last one
// and a backward-shift deletion in the table: O(1), at the cost of edge
// order. A friendship is keyed by its users' indices in ascending order.
//
// NewState fills the tables on every core (see there); a View reads the
// edges back from the keys in key order.
//
// A State is not safe for concurrent use, except that a View may be read
// by other goroutines while the owner keeps applying changes, and
// that other goroutines may read nodes (Post, Comment, PostIDTime,
// CommentIDTime, Root, Counts) while the owner is not applying.
type State struct {
	posts    IDMap
	comments IDMap
	users    IDMap
	// postTimes and commentRecs hold the rest of each post and comment, by
	// index.
	postTimes   []int64
	commentRecs []commentRec
	// friends and likes key each edge: pair(lower, higher user index) and
	// pair(user, comment).
	friends slotTable[uint64]
	likes   slotTable[uint64]

	// refs is Apply's output and removedAt the key position each removal
	// of the request took its edge from, both reused.
	refs      []Ref
	removedAt []int32

	// Copy-on-write for views: shared marks that a view was taken since
	// the key arrays were last detached; views counts views not yet
	// released (they may be read on other goroutines, hence atomic).
	shared bool
	views  atomic.Int32

	// OnDetach, when non-nil, observes the pause of every copy-on-write
	// detach of the key arrays.
	OnDetach func(time.Duration)
}

// commentRec is a comment as the State keeps it beside its id: its
// timestamp, its parent's index among the comments, or −1 for a direct
// reply to its root post (parentOf), and its root post's index.
type commentRec struct {
	ts           int64
	parent, root int32
}

// Ref is one change resolved to a State's node indices. Kind is the
// change's kind; A and B hold, by kind:
//
//	AddPost                          the post
//	AddComment                       the comment, its root post
//	AddUser                          the user
//	AddFriendship, RemoveFriendship  User1, User2
//	AddLike, RemoveLike              the user, the comment
type Ref struct {
	Kind ChangeKind
	A, B int32
}

// pair packs two indices into one edge key.
func pair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// unpack splits an edge key into its two indices.
func unpack(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// friendKey is the key of the friendship between users a and b, in either
// order.
func friendKey(a, b int32) uint64 { return pair(min(a, b), max(a, b)) }

// commentChunk is how many comments NewState checks as one piece of work.
const commentChunk = 16 << 10

// NewState validates s as an initial state and returns a State holding
// its contents; it keeps no reference to s. The error wraps ErrIntegrity.
// It is the violation a check of every entity one by one finds first, in
// the order posts, users, comments (each reply after its parent),
// friendships, likes, and within each family by position.
//
// The checks run in two phases, each on runtime.GOMAXPROCS(0)
// goroutines. The first adds the ids of comments, users and posts to
// their tables, a table per goroutine, each up to its first duplicate.
// The second checks each comment's root post and parent, in chunks of
// commentChunk comments, beside the friendships and the likes, which
// fill their edge tables on a goroutine each.
func NewState(s *Snapshot) (*State, error) {
	st := &State{
		postTimes:   make([]int64, len(s.Posts)),
		commentRecs: make([]commentRec, len(s.Comments)),
	}
	st.posts.reserve(len(s.Posts))
	st.comments.reserve(len(s.Comments))
	st.users.reserve(len(s.Users))
	st.friends.reserve(len(s.Friendships))
	st.likes.reserve(len(s.Likes))

	// posts, users and comments are the positions of each family's first
	// duplicate id, or its length. Here and in the second phase, each
	// goroutine fills copies of the headers of the tables and slices it
	// appends to, and stores them back when it is done: the State's own
	// headers share cache lines, which goroutines appending through them
	// would pass back and forth on every entity.
	var posts, users, comments int
	parallel(3, func(i int) {
		switch i {
		case 0:
			m := st.comments
			comments = addCommentIDs(&m, s.Comments, st.commentRecs)
			st.comments = m
		case 1:
			m := st.users
			users = addIDs(&m, s.Users, func(u *User) ID { return u.ID })
			st.users = m
		default:
			m := st.posts
			posts = addIDs(&m, s.Posts, func(p *Post) ID { return p.ID })
			st.posts = m
			ts := st.postTimes
			for k := range s.Posts {
				ts[k] = s.Posts[k].Timestamp
			}
		}
	})
	switch {
	case posts < len(s.Posts):
		return nil, initial(violation("duplicate post id %d", s.Posts[posts].ID))
	case users < len(s.Users):
		return nil, initial(violation("duplicate user id %d", s.Users[users].ID))
	}

	// The comments up to the first duplicate are checked; the edges only
	// if there is none. errs holds the chunks' errors, then the
	// friendships' and the likes'; the edges start first, as the longest
	// pieces of work.
	chunks := (comments + commentChunk - 1) / commentChunk
	edges := comments == len(s.Comments)
	errs := make([]error, chunks+2)
	parallel(chunks+2, func(i int) {
		switch {
		case i == 0 && edges:
			e := &State{users: st.users, friends: st.friends}
			errs[chunks] = addAll(s.Friendships, func(f *Friendship) error { _, _, err := e.addFriendship(*f); return err })
			st.friends = e.friends
		case i == 1 && edges:
			e := &State{users: st.users, comments: st.comments, likes: st.likes}
			errs[chunks+1] = addAll(s.Likes, func(l *Like) error { _, _, err := e.addLike(*l); return err })
			st.likes = e.likes
		case i >= 2:
			lo := (i - 2) * commentChunk
			errs[i-2] = st.checkComments(s.Comments, lo, min(lo+commentChunk, comments))
		}
	})
	for _, err := range errs[:chunks] {
		if err != nil {
			return nil, initial(err)
		}
	}
	if !edges {
		return nil, initial(violation("duplicate comment id %d", s.Comments[comments].ID))
	}
	for _, err := range errs[chunks:] {
		if err != nil {
			return nil, initial(err)
		}
	}
	return st, nil
}

func initial(err error) error { return fmt.Errorf("initial state: %w", err) }

// parallel calls work(0), …, work(n−1) on min(runtime.GOMAXPROCS(0), n)
// goroutines, the calling one among them, each taking the lowest index
// not yet taken, and returns when every call has.
func parallel(n int, work func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			work(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// addIDs adds the ids of list to m in order and returns the position of
// the first that m already holds, or len(list).
func addIDs[E any](m *IDMap, list []E, id func(*E) ID) int {
	for i := range list {
		if _, added := m.add(id(&list[i])); !added {
			return i
		}
	}
	return len(list)
}

// addCommentIDs adds the ids of comments to m in order and returns the
// position of the first that m already holds, or len(comments). On the
// way it sets recs[i] to comment i's timestamp and parent (parentOf): the
// lookup finds a parent among the ids added last, which are the likeliest
// to be cached.
func addCommentIDs(m *IDMap, comments []Comment, recs []commentRec) int {
	for i := range comments {
		c := &comments[i]
		if _, added := m.add(c.ID); !added {
			return i
		}
		recs[i] = commentRec{ts: c.Timestamp, parent: parentOf(m, c, i)}
	}
	return len(comments)
}

// checkComments checks comments[lo:hi], whose ids are in the table and
// whose records hold their parents (addCommentIDs), and sets the records'
// root posts; it stops at the first error.
func (st *State) checkComments(comments []Comment, lo, hi int) error {
	for i := lo; i < hi; i++ {
		r := &st.commentRecs[i]
		post, err := st.commentRoot(&comments[i], r.parent, comments[:lo])
		if err != nil {
			return err
		}
		r.root = post
	}
	return nil
}

// addAll adds each entity of list with add and stops at the first error.
func addAll[E any](list []E, add func(*E) error) error {
	for k := range list {
		if err := add(&list[k]); err != nil {
			return err
		}
	}
	return nil
}

// Apply checks and applies one request's changes in order and returns
// them resolved, one Ref per change, in a buffer that stays valid until
// the next Apply. It is all-or-nothing: on the first invalid change every
// earlier change of the request is undone, last first, which restores
// every table and slice exactly, and the error, wrapping
// ErrIntegrity, is returned.
func (st *State) Apply(changes []Change) ([]Ref, error) {
	st.refs, st.removedAt = st.refs[:0], st.removedAt[:0]
	for i := range changes {
		r, err := st.apply(&changes[i])
		if err != nil {
			for j := len(st.refs) - 1; j >= 0; j-- {
				st.undo(st.refs[j])
			}
			st.refs = st.refs[:0]
			return nil, fmt.Errorf("change %d (%s): %w", i, changes[i].Kind, err)
		}
		st.refs = append(st.refs, r)
	}
	return st.refs, nil
}

// DropHeldAdds appends to dst the changes an engine of boolean matrices
// needs to see and returns dst: every change except an AddLike or
// AddFriendship of an edge that is present where the change stands in
// the sequence, because an earlier change of it added the edge, or the
// state holds it and no earlier change removed it. Such an add changes no
// boolean matrix, while Apply rejects it as a duplicate.
func (st *State) DropHeldAdds(dst, changes []Change) []Change {
	var present map[ChangeKey]bool // the edges changes has touched so far
	for i := range changes {
		ch := &changes[i]
		if f, _ := ch.Kind.Family(); f != KeyLike && f != KeyFriendship {
			dst = append(dst, *ch)
			continue
		}
		k := ch.Key()
		add := !ch.Kind.IsRemoval()
		if add {
			held, touched := present[k]
			if !touched {
				held = st.holds(ch)
			}
			if held {
				continue
			}
		}
		if present == nil {
			present = make(map[ChangeKey]bool)
		}
		present[k] = add
		dst = append(dst, *ch)
	}
	return dst
}

// holds reports whether the state holds the like or friendship an
// AddLike or AddFriendship change adds.
func (st *State) holds(ch *Change) bool {
	var k uint64
	var t *slotTable[uint64]
	switch ch.Kind {
	case KindAddLike:
		u, okU := index(&st.users, ch.Like.UserID)
		c, okC := index(&st.comments, ch.Like.CommentID)
		if !okU || !okC {
			return false
		}
		k, t = pair(u, c), &st.likes
	case KindAddFriendship:
		a, okA := index(&st.users, ch.Friendship.User1)
		b, okB := index(&st.users, ch.Friendship.User2)
		if !okA || !okB {
			return false
		}
		k, t = friendKey(a, b), &st.friends
	default:
		return false
	}
	_, ok := t.index(k)
	return ok
}

// Counts reports the number of posts, comments and users.
func (st *State) Counts() (posts, comments, users int) {
	return st.posts.Len(), st.comments.Len(), st.users.Len()
}

// Post returns post i.
func (st *State) Post(i int) Post { n := st.nodes(); return n.Post(i) }

// Comment returns comment i.
func (st *State) Comment(i int) Comment { n := st.nodes(); return n.Comment(i) }

// PostIDTime returns post i's id and timestamp.
func (st *State) PostIDTime(i int) (ID, int64) { return st.posts.keys[i], st.postTimes[i] }

// CommentIDTime returns comment i's id and timestamp.
func (st *State) CommentIDTime(i int) (ID, int64) {
	return st.comments.keys[i], st.commentRecs[i].ts
}

// Root returns the index of comment i's root post.
func (st *State) Root(i int) int { return int(st.commentRecs[i].root) }

// Nodes is a fixed prefix of a State's posts and comments: the ones it
// held when its View was taken, read through the same arrays as the
// State. Nodes are never removed or rewritten, so another goroutine may
// read it while the State's owner keeps applying changes.
type Nodes struct {
	postIDs, commentIDs []ID
	postTimes           []int64
	commentRecs         []commentRec
}

// Post returns post i.
func (n *Nodes) Post(i int) Post { return Post{ID: n.postIDs[i], Timestamp: n.postTimes[i]} }

// Comment returns comment i: its post id is its root post's id, and its
// parent id that of the comment it replies to, or its post id for a
// direct reply.
func (n *Nodes) Comment(i int) Comment {
	r := &n.commentRecs[i]
	c := Comment{ID: n.commentIDs[i], Timestamp: r.ts, PostID: n.postIDs[r.root]}
	c.ParentID = c.PostID
	if r.parent >= 0 {
		c.ParentID = n.commentIDs[r.parent]
	}
	return c
}

// PostIDTime returns post i's id and timestamp.
func (n *Nodes) PostIDTime(i int) (ID, int64) { return n.postIDs[i], n.postTimes[i] }

// CommentIDTime returns comment i's id and timestamp.
func (n *Nodes) CommentIDTime(i int) (ID, int64) { return n.commentIDs[i], n.commentRecs[i].ts }

// nodes returns the State's arrays of posts and comments, unclamped.
func (st *State) nodes() Nodes {
	return Nodes{postIDs: st.posts.keys, commentIDs: st.comments.keys, postTimes: st.postTimes, commentRecs: st.commentRecs}
}

// clamp returns a's header with its capacity cut to its length, so later
// appends to a stay invisible through it.
func clamp[E any](a []E) []E { return a[:len(a):len(a)] }

// View is a State's entities as View found them: its Nodes, the users'
// ids and the two edge families' keys, each a clamped slice header. It
// reads as a Snapshot does, through Len and AppendFields, which rebuild
// each post and comment and resolve each edge key to its endpoints' ids,
// and as the refs that build it, through Refs.
type View struct {
	nodes          Nodes
	users          []ID
	friends, likes []uint64
}

// View returns the current state as a View in O(1), so later appends stay
// invisible to it. Until release is called, the first edge removal copies
// the key arrays instead of writing them under the view's reader. Call
// release exactly once, from any goroutine, when the view's users and
// edges are no longer read; its Nodes stay readable after release, since
// no node is ever written in place.
func (st *State) View() (view *View, release func()) {
	st.shared = true
	st.views.Add(1)
	n := st.nodes()
	return &View{
		nodes: Nodes{postIDs: clamp(n.postIDs), commentIDs: clamp(n.commentIDs), postTimes: clamp(n.postTimes), commentRecs: clamp(n.commentRecs)},
		users: clamp(st.users.keys), friends: clamp(st.friends.keys), likes: clamp(st.likes.keys),
	}, func() { st.views.Add(-1) }
}

// Nodes returns the view's posts and comments.
func (v *View) Nodes() *Nodes { return &v.nodes }

// Refs returns the changes that build the view's state from an empty one,
// resolved, in the order NewState checks them: posts, users, comments,
// friendships, likes. Edges come in key order, read from their keys, so
// a friendship's users are in index order.
func (v *View) Refs() []Ref {
	np, nu, nc, nf := len(v.nodes.postIDs), len(v.users), len(v.nodes.commentRecs), len(v.friends)
	refs := make([]Ref, np+nu+nc+nf+len(v.likes))
	for i := range refs[:np] {
		refs[i] = Ref{Kind: KindAddPost, A: int32(i)}
	}
	for i := range refs[np : np+nu] {
		refs[np+i] = Ref{Kind: KindAddUser, A: int32(i)}
	}
	for i := range v.nodes.commentRecs {
		refs[np+nu+i] = Ref{Kind: KindAddComment, A: int32(i), B: v.nodes.commentRecs[i].root}
	}
	for i, k := range v.friends {
		a, b := unpack(k)
		refs[np+nu+nc+i] = Ref{Kind: KindAddFriendship, A: a, B: b}
	}
	for i, k := range v.likes {
		u, c := unpack(k)
		refs[np+nu+nc+nf+i] = Ref{Kind: KindAddLike, A: u, B: c}
	}
	return refs
}

// Len returns the length of v's array of family f.
func (v *View) Len(f KeyKind) int {
	return [Families]int{KeyPost: len(v.nodes.postIDs), KeyComment: len(v.nodes.commentIDs), KeyUser: len(v.users),
		KeyFriendship: len(v.friends), KeyLike: len(v.likes)}[f]
}

// AppendFields appends to dst the fields of the entities [i, j) of v's
// array of family f, in codec order; a friendship's users come in
// ascending id order.
func (v *View) AppendFields(dst []int64, f KeyKind, i, j int) []int64 {
	switch f {
	case KeyPost:
		for k := i; k < j; k++ {
			p := v.nodes.Post(k)
			dst = p.appendFields(dst)
		}
	case KeyComment:
		for k := i; k < j; k++ {
			c := v.nodes.Comment(k)
			dst = c.appendFields(dst)
		}
	case KeyUser:
		dst = append(dst, v.users[i:j]...)
	case KeyFriendship:
		for _, k := range v.friends[i:j] {
			a, b := unpack(k)
			dst = append(dst, min(v.users[a], v.users[b]), max(v.users[a], v.users[b]))
		}
	case KeyLike:
		for _, k := range v.likes[i:j] {
			u, c := unpack(k)
			dst = append(dst, v.users[u], v.nodes.commentIDs[c])
		}
	}
	return dst
}

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIntegrity, fmt.Sprintf(format, args...))
}

// index returns id's index in m as an int32 and whether it is known.
func index(m *IDMap, id ID) (int32, bool) {
	i, ok := m.Index(id)
	return int32(i), ok
}

// apply checks one change and, only if it is valid, applies it and
// returns it resolved.
func (st *State) apply(ch *Change) (r Ref, err error) {
	r.Kind = ch.Kind
	switch ch.Kind {
	case KindAddPost:
		r.A, err = st.addPost(ch.Post)
	case KindAddComment:
		r.A, err = st.addComment(&ch.Comment)
		if err == nil {
			r.B = st.commentRecs[r.A].root
		}
	case KindAddUser:
		r.A, err = st.addUser(ch.User)
	case KindAddFriendship:
		r.A, r.B, err = st.addFriendship(ch.Friendship)
	case KindAddLike:
		r.A, r.B, err = st.addLike(ch.Like)
	case KindRemoveFriendship:
		r.A, r.B, err = st.removeFriendship(ch.Friendship)
	case KindRemoveLike:
		r.A, r.B, err = st.removeLike(ch.Like)
	default:
		err = violation("unknown change kind %d", ch.Kind)
	}
	return r, err
}

// The add and remove methods check one change of their kind and, only if
// it is valid, apply it and return the indices it resolved to.

func (st *State) addPost(p Post) (int32, error) {
	n, added := st.posts.add(p.ID)
	if !added {
		return 0, violation("duplicate post id %d", p.ID)
	}
	st.postTimes = append(st.postTimes, p.Timestamp)
	return int32(n), nil
}

func (st *State) addUser(u User) (int32, error) {
	n, added := st.users.add(u.ID)
	if !added {
		return 0, violation("duplicate user id %d", u.ID)
	}
	return int32(n), nil
}

// addComment checks the comment before it adds it, except that it adds
// the id first and takes it back if a later check fails: one table probe
// for both the duplicate check and the insert.
func (st *State) addComment(c *Comment) (int32, error) {
	n, added := st.comments.add(c.ID)
	if !added {
		return 0, violation("duplicate comment id %d", c.ID)
	}
	parent := parentOf(&st.comments, c, n)
	post, err := st.commentRoot(c, parent, nil)
	if err != nil {
		st.comments.pop()
		return 0, err
	}
	st.commentRecs = append(st.commentRecs, commentRec{ts: c.Timestamp, parent: parent, root: post})
	return int32(n), nil
}

// parentOf returns the index of comment i's parent, c.ParentID, among
// the comments before it in m, or −1 for none or for a direct reply.
func parentOf(m *IDMap, c *Comment, i int) int32 {
	if c.ParentID == c.PostID {
		return -1
	}
	if p, ok := m.index(c.ParentID); ok && p < i {
		return int32(p)
	}
	return -1
}

// commentRoot checks comment c, whose parent among the comments before it
// is parent (parentOf), against the posts and returns its root post's
// index. The root of a parent among below, initial comments whose records
// another goroutine may be writing, is read through that comment's post
// id rather than from its record.
func (st *State) commentRoot(c *Comment, parent int32, below []Comment) (int32, error) {
	post, ok := index(&st.posts, c.PostID)
	if !ok {
		return 0, violation("comment %d references missing root post %d", c.ID, c.PostID)
	}
	if c.ParentID == c.PostID {
		return post, nil // a direct reply
	}
	if _, isPost := st.posts.Index(c.ParentID); isPost {
		return 0, violation("comment %d replies to post %d but roots at %d", c.ID, c.ParentID, c.PostID)
	}
	if parent < 0 {
		return 0, violation("comment %d references missing parent %d", c.ID, c.ParentID)
	}
	var root int32
	if int(parent) < len(below) {
		root, _ = index(&st.posts, below[parent].PostID)
	} else {
		root = st.commentRecs[parent].root
	}
	if root != post {
		return 0, violation("comment %d root post %d differs from parent's root %d", c.ID, c.PostID, st.posts.IDOf(int(root)))
	}
	return post, nil
}

func (st *State) addFriendship(f Friendship) (a, b int32, err error) {
	if f.User1 == f.User2 {
		return 0, 0, violation("self-friendship of user %d", f.User1)
	}
	var ok bool
	if a, ok = index(&st.users, f.User1); !ok {
		return 0, 0, violation("friendship references missing user %d", f.User1)
	}
	if b, ok = index(&st.users, f.User2); !ok {
		return 0, 0, violation("friendship references missing user %d", f.User2)
	}
	if _, added := st.friends.add(friendKey(a, b)); !added {
		return 0, 0, violation("duplicate friendship %d–%d", f.User1, f.User2)
	}
	return a, b, nil
}

func (st *State) addLike(l Like) (u, c int32, err error) {
	var ok bool
	if u, ok = index(&st.users, l.UserID); !ok {
		return 0, 0, violation("like references missing user %d", l.UserID)
	}
	if c, ok = index(&st.comments, l.CommentID); !ok {
		return 0, 0, violation("like references missing comment %d", l.CommentID)
	}
	if _, added := st.likes.add(pair(u, c)); !added {
		return 0, 0, violation("duplicate like %d→%d", l.UserID, l.CommentID)
	}
	return u, c, nil
}

func (st *State) removeFriendship(f Friendship) (a, b int32, err error) {
	a, okA := index(&st.users, f.User1)
	b, okB := index(&st.users, f.User2)
	k := friendKey(a, b)
	if _, ok := st.friends.index(k); !ok || !okA || !okB {
		return 0, 0, violation("removal of missing friendship %d–%d", f.User1, f.User2)
	}
	st.detach()
	st.removedAt = append(st.removedAt, int32(st.friends.remove(k)))
	return a, b, nil
}

func (st *State) removeLike(l Like) (u, c int32, err error) {
	u, okU := index(&st.users, l.UserID)
	c, okC := index(&st.comments, l.CommentID)
	k := pair(u, c)
	if _, ok := st.likes.index(k); !ok || !okU || !okC {
		return 0, 0, violation("removal of missing like %d→%d", l.UserID, l.CommentID)
	}
	st.detach()
	st.removedAt = append(st.removedAt, int32(st.likes.remove(k)))
	return u, c, nil
}

// undo reverts a change apply accepted. Apply undoes a request's changes
// last first, so a node being undone is the newest of its table, an edge
// being un-added is the last of its keys, and an edge being un-removed
// goes back to the position its removal took it from.
func (st *State) undo(r Ref) {
	switch r.Kind {
	case KindAddPost:
		st.posts.pop()
		st.postTimes = st.postTimes[:len(st.postTimes)-1]
	case KindAddComment:
		st.comments.pop()
		st.commentRecs = st.commentRecs[:len(st.commentRecs)-1]
	case KindAddUser:
		st.users.pop()
	case KindAddFriendship:
		st.friends.pop()
	case KindAddLike:
		st.likes.pop()
	case KindRemoveFriendship:
		st.friends.unremove(friendKey(r.A, r.B), st.popRemovedAt())
	case KindRemoveLike:
		st.likes.unremove(pair(r.A, r.B), st.popRemovedAt())
	}
}

func (st *State) popRemovedAt() int {
	i := st.removedAt[len(st.removedAt)-1]
	st.removedAt = st.removedAt[:len(st.removedAt)-1]
	return int(i)
}

// detach runs before an in-place edge write. If a view taken since the
// last detach may still be read, the key arrays are copied first, 8 bytes
// per edge, so the pause is one copy per view and only on removal traffic.
// Appends need no copy: the view's clamped headers cannot see past their
// length, and no user id or node is ever written in place.
func (st *State) detach() {
	if !st.shared {
		return
	}
	st.shared = false
	if st.views.Load() == 0 {
		return
	}
	start := time.Now()
	st.friends.keys = append([]uint64(nil), st.friends.keys...)
	st.likes.keys = append([]uint64(nil), st.likes.keys...)
	if st.OnDetach != nil {
		st.OnDetach(time.Since(start))
	}
}
