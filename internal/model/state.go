package model

import (
	"fmt"
	"sync/atomic"
	"time"
)

// State is the validated, materialized model: the one table of node
// indices every layer uses, keyed edge indexes for referential integrity,
// and the ordered entity slices a snapshot needs. NewState and Apply are
// the only code that enforces the integrity rules; Validate, the serving
// writer and WAL replay all go through them.
//
// Posts, comments and users each live in an IDMap: a node's index is its
// insertion order, which is also its position in the entity slice, and the
// sharded runtime and the engines index by it (the paper's solution maps
// TTC ids to 0..n−1 matrix indices once, at load time; this is that map).
// Nodes are never removed, so the indices are stable and a reply always
// follows its parent. Each comment's root post is kept as a post index.
// Edges are keyed by their endpoints' index pair packed into a uint64 and
// map to their slice position, so removing one is a lookup plus a swap
// with the last edge: O(1), at the cost of edge order. Friendships are
// stored with ordered endpoints (User1 < User2) and keyed by ordered
// indices.
//
// A State is not safe for concurrent use, except that a View or Nodes may
// be read by other goroutines while the owner keeps applying changes, and
// that other goroutines may read nodes (Post, Comment, Root, Counts)
// while the owner is not applying.
type State struct {
	posts    IDMap
	comments IDMap
	users    IDMap
	root     []int32          // comment index → its root post's index
	friendAt map[uint64]int32 // pair(lower, higher user index) → index in s.Friendships
	likeAt   map[uint64]int32 // pair(user, comment) → index in s.Likes
	s        Snapshot

	// refs is Apply's output and removedAt the slice position each
	// removal of the request took its edge from, both reused.
	refs      []Ref
	removedAt []int32

	// Copy-on-write for views: shared marks that a view was taken since
	// the edge arrays were last detached; views counts views not yet
	// released (they may be read on other goroutines, hence atomic).
	shared bool
	views  atomic.Int32

	// OnDetach, when non-nil, observes the pause of every copy-on-write
	// detach of the edge arrays.
	OnDetach func(time.Duration)
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

// NewState validates s as an initial state and returns a State holding a
// copy of it. Entities are checked in the order posts, users, comments
// (each reply after its parent), friendships, likes. The error wraps
// ErrIntegrity.
func NewState(s *Snapshot) (*State, error) {
	st := &State{
		root:     make([]int32, 0, len(s.Comments)),
		friendAt: make(map[uint64]int32, len(s.Friendships)),
		likeAt:   make(map[uint64]int32, len(s.Likes)),
		s: Snapshot{
			Posts:       make([]Post, 0, len(s.Posts)),
			Comments:    make([]Comment, 0, len(s.Comments)),
			Users:       make([]User, 0, len(s.Users)),
			Friendships: make([]Friendship, 0, len(s.Friendships)),
			Likes:       make([]Like, 0, len(s.Likes)),
		},
	}
	st.posts.reserve(len(s.Posts))
	st.comments.reserve(len(s.Comments))
	st.users.reserve(len(s.Users))
	// Posts and then comments (a comment needs its root post) go in
	// beside users, then friendships beside likes: each group writes only
	// its own tables. The error reported is the first in check order, as
	// if every entity were checked one by one.
	var errs [5]error
	both(func() {
		errs[0] = addAll(s.Posts, func(p *Post) error { _, err := st.addPost(*p); return err })
		if errs[0] == nil {
			errs[2] = addAll(s.Comments, func(c *Comment) error { _, err := st.addComment(c); return err })
		}
	}, func() {
		errs[1] = addAll(s.Users, func(u *User) error { _, err := st.addUser(*u); return err })
	})
	if errs[0] == nil && errs[1] == nil && errs[2] == nil {
		both(func() {
			errs[3] = addAll(s.Friendships, func(f *Friendship) error { _, _, err := st.addFriendship(*f); return err })
		}, func() {
			errs[4] = addAll(s.Likes, func(l *Like) error { _, _, err := st.addLike(*l); return err })
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("initial state: %w", err)
		}
	}
	return st, nil
}

// both runs f and g concurrently and returns when both are done.
func both(f, g func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		g()
	}()
	f()
	<-done
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
// every table, index and slice exactly, and the error, wrapping
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

// Refs returns the changes that build the current state from an empty one,
// resolved, in the order NewState checks them: posts, users, comments,
// friendships, likes. Edges come in slice order, read from their keys, so
// a friendship's users are in index order.
func (st *State) Refs() []Ref {
	s := &st.s
	np, nu, nc, nf := len(s.Posts), len(s.Users), len(s.Comments), len(s.Friendships)
	refs := make([]Ref, np+nu+nc+nf+len(s.Likes))
	for i := range refs[:np] {
		refs[i] = Ref{Kind: KindAddPost, A: int32(i)}
	}
	for i := range refs[np : np+nu] {
		refs[np+i] = Ref{Kind: KindAddUser, A: int32(i)}
	}
	for i, r := range st.root {
		refs[np+nu+i] = Ref{Kind: KindAddComment, A: int32(i), B: r}
	}
	for k, i := range st.friendAt {
		a, b := unpack(k)
		refs[np+nu+nc+int(i)] = Ref{Kind: KindAddFriendship, A: a, B: b}
	}
	for k, i := range st.likeAt {
		u, c := unpack(k)
		refs[np+nu+nc+nf+int(i)] = Ref{Kind: KindAddLike, A: u, B: c}
	}
	return refs
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
	var at map[uint64]int32
	switch ch.Kind {
	case KindAddLike:
		u, okU := index(&st.users, ch.Like.UserID)
		c, okC := index(&st.comments, ch.Like.CommentID)
		if !okU || !okC {
			return false
		}
		k, at = pair(u, c), st.likeAt
	case KindAddFriendship:
		a, okA := index(&st.users, ch.Friendship.User1)
		b, okB := index(&st.users, ch.Friendship.User2)
		if !okA || !okB {
			return false
		}
		k, at = friendKey(a, b), st.friendAt
	default:
		return false
	}
	_, ok := at[k]
	return ok
}

// Counts reports the number of posts, comments and users.
func (st *State) Counts() (posts, comments, users int) {
	return st.posts.Len(), st.comments.Len(), st.users.Len()
}

// Post returns post i.
func (st *State) Post(i int) Post { return st.s.Posts[i] }

// Comment returns comment i.
func (st *State) Comment(i int) Comment { return st.s.Comments[i] }

// Root returns the index of comment i's root post.
func (st *State) Root(i int) int { return int(st.root[i]) }

// Nodes is a fixed prefix of a State's posts and comments: the ones it
// held when Nodes was called. Nodes are never removed or rewritten, so
// another goroutine may read it while the State's owner keeps applying
// changes.
type Nodes struct {
	posts    []Post
	comments []Comment
}

// Post returns post i.
func (n *Nodes) Post(i int) Post { return n.posts[i] }

// Comment returns comment i.
func (n *Nodes) Comment(i int) Comment { return n.comments[i] }

// Nodes returns the posts and comments the State holds now, in O(1): the
// slice headers clamped to their length, so later appends stay invisible
// to it. Unlike View it marks nothing shared: no node is ever written in
// place.
func (st *State) Nodes() Nodes {
	s := &st.s
	return Nodes{posts: s.Posts[:len(s.Posts):len(s.Posts)], comments: s.Comments[:len(s.Comments):len(s.Comments)]}
}

// View returns the current state as a Snapshot in O(1): the slice headers
// clamped to their length, so later appends stay invisible to it. Until
// release is called, the first edge removal copies the edge arrays instead
// of writing them under the view's reader. Call release exactly once,
// from any goroutine, when the view is no longer read.
func (st *State) View() (view *Snapshot, release func()) {
	st.shared = true
	st.views.Add(1)
	s := &st.s
	return &Snapshot{
		Posts:       s.Posts[:len(s.Posts):len(s.Posts)],
		Comments:    s.Comments[:len(s.Comments):len(s.Comments)],
		Users:       s.Users[:len(s.Users):len(s.Users)],
		Friendships: s.Friendships[:len(s.Friendships):len(s.Friendships)],
		Likes:       s.Likes[:len(s.Likes):len(s.Likes)],
	}, func() { st.views.Add(-1) }
}

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIntegrity, fmt.Sprintf(format, args...))
}

// index returns id's index in m as an int32 and whether it is known.
func index(m *IDMap, id ID) (int32, bool) {
	i, ok := m.Index(id)
	return int32(i), ok
}

// user and comment resolve ids the State is known to hold.
func (st *State) user(id ID) int32    { return int32(st.users.MustIndex(id)) }
func (st *State) comment(id ID) int32 { return int32(st.comments.MustIndex(id)) }

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
			r.B = st.root[r.A]
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
	n := st.posts.Len()
	if st.posts.Add(p.ID) != n {
		return 0, violation("duplicate post id %d", p.ID)
	}
	st.s.Posts = append(st.s.Posts, p)
	return int32(n), nil
}

func (st *State) addUser(u User) (int32, error) {
	n := st.users.Len()
	if st.users.Add(u.ID) != n {
		return 0, violation("duplicate user id %d", u.ID)
	}
	st.s.Users = append(st.s.Users, u)
	return int32(n), nil
}

// addComment checks the comment before it adds it, except that it adds
// the id first and takes it back if a later check fails: one table probe
// for both the duplicate check and the insert.
func (st *State) addComment(c *Comment) (int32, error) {
	n := st.comments.Len()
	if st.comments.Add(c.ID) != n {
		return 0, violation("duplicate comment id %d", c.ID)
	}
	post, err := st.commentRoot(c)
	if err != nil {
		st.comments.pop()
		return 0, err
	}
	st.root = append(st.root, post)
	st.s.Comments = append(st.s.Comments, *c)
	return int32(n), nil
}

// commentRoot checks a new comment's root post and parent and returns the
// root post's index.
func (st *State) commentRoot(c *Comment) (int32, error) {
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
	parent, isComment := index(&st.comments, c.ParentID)
	if !isComment || int(parent) == st.comments.Len()-1 { // not the comment itself
		return 0, violation("comment %d references missing parent %d", c.ID, c.ParentID)
	}
	if root := st.root[parent]; root != post {
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
	k := friendKey(a, b)
	if _, dup := st.friendAt[k]; dup {
		return 0, 0, violation("duplicate friendship %d–%d", f.User1, f.User2)
	}
	st.friendAt[k] = int32(len(st.s.Friendships))
	st.s.Friendships = append(st.s.Friendships, f.ordered())
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
	k := pair(u, c)
	if _, dup := st.likeAt[k]; dup {
		return 0, 0, violation("duplicate like %d→%d", l.UserID, l.CommentID)
	}
	st.likeAt[k] = int32(len(st.s.Likes))
	st.s.Likes = append(st.s.Likes, l)
	return u, c, nil
}

func (st *State) removeFriendship(f Friendship) (a, b int32, err error) {
	a, okA := index(&st.users, f.User1)
	b, okB := index(&st.users, f.User2)
	k := friendKey(a, b)
	if _, ok := st.friendAt[k]; !ok || !okA || !okB {
		return 0, 0, violation("removal of missing friendship %d–%d", f.User1, f.User2)
	}
	st.detach()
	var i int32
	st.s.Friendships, i = swapRemove(st.friendAt, st.s.Friendships, k, st.friendshipKey)
	st.removedAt = append(st.removedAt, i)
	return a, b, nil
}

func (st *State) removeLike(l Like) (u, c int32, err error) {
	u, okU := index(&st.users, l.UserID)
	c, okC := index(&st.comments, l.CommentID)
	k := pair(u, c)
	if _, ok := st.likeAt[k]; !ok || !okU || !okC {
		return 0, 0, violation("removal of missing like %d→%d", l.UserID, l.CommentID)
	}
	st.detach()
	var i int32
	st.s.Likes, i = swapRemove(st.likeAt, st.s.Likes, k, st.likeKey)
	st.removedAt = append(st.removedAt, i)
	return u, c, nil
}

// undo reverts a change apply accepted. Apply undoes a request's changes
// last first, so a node being undone is the newest of its table, an edge
// being un-added is the last of its slice, and an edge being un-removed
// goes back to the position its removal took it from.
func (st *State) undo(r Ref) {
	switch r.Kind {
	case KindAddPost:
		st.posts.pop()
		st.s.Posts = st.s.Posts[:len(st.s.Posts)-1]
	case KindAddComment:
		st.comments.pop()
		st.root = st.root[:len(st.root)-1]
		st.s.Comments = st.s.Comments[:len(st.s.Comments)-1]
	case KindAddUser:
		st.users.pop()
		st.s.Users = st.s.Users[:len(st.s.Users)-1]
	case KindAddFriendship:
		delete(st.friendAt, friendKey(r.A, r.B))
		st.s.Friendships = st.s.Friendships[:len(st.s.Friendships)-1]
	case KindAddLike:
		delete(st.likeAt, pair(r.A, r.B))
		st.s.Likes = st.s.Likes[:len(st.s.Likes)-1]
	case KindRemoveFriendship:
		f := Friendship{User1: st.users.IDOf(int(r.A)), User2: st.users.IDOf(int(r.B))}.ordered()
		st.s.Friendships = unremove(st.friendAt, st.s.Friendships, f, friendKey(r.A, r.B), st.popRemovedAt(), st.friendshipKey)
	case KindRemoveLike:
		l := Like{UserID: st.users.IDOf(int(r.A)), CommentID: st.comments.IDOf(int(r.B))}
		st.s.Likes = unremove(st.likeAt, st.s.Likes, l, pair(r.A, r.B), st.popRemovedAt(), st.likeKey)
	}
}

func (st *State) popRemovedAt() int32 {
	i := st.removedAt[len(st.removedAt)-1]
	st.removedAt = st.removedAt[:len(st.removedAt)-1]
	return i
}

// friendshipKey and likeKey are a stored edge's key.
func (st *State) friendshipKey(f Friendship) uint64 {
	return friendKey(st.user(f.User1), st.user(f.User2))
}

func (st *State) likeKey(l Like) uint64 { return pair(st.user(l.UserID), st.comment(l.CommentID)) }

// detach runs before an in-place edge write. If a view taken since the
// last detach may still be read, the edge arrays are copied first, so the
// pause is one copy per view and only on removal traffic. Appends need no
// copy: the view's clamped headers cannot see past their length.
func (st *State) detach() {
	if !st.shared {
		return
	}
	st.shared = false
	if st.views.Load() == 0 {
		return
	}
	start := time.Now()
	st.s.Friendships = append([]Friendship(nil), st.s.Friendships...)
	st.s.Likes = append([]Like(nil), st.s.Likes...)
	if st.OnDetach != nil {
		st.OnDetach(time.Since(start))
	}
}

// swapRemove deletes the edge keyed k, which must be present, by moving
// the last edge into its slot, and returns the shortened list and the
// slot.
func swapRemove[E any](at map[uint64]int32, list []E, k uint64, key func(E) uint64) ([]E, int32) {
	i, last := at[k], len(list)-1
	if int(i) != last {
		list[i] = list[last]
		at[key(list[i])] = i
	}
	delete(at, k)
	return list[:last], i
}

// unremove reverts swapRemove: the edge now at slot i goes back to the
// end, and e, keyed k, back to slot i.
func unremove[E any](at map[uint64]int32, list []E, e E, k uint64, i int32, key func(E) uint64) []E {
	if int(i) == len(list) {
		at[k] = i
		return append(list, e)
	}
	moved := list[i]
	at[key(moved)] = int32(len(list))
	list = append(list, moved)
	list[i] = e
	at[k] = i
	return list
}
