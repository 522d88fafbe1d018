package model

import (
	"fmt"
	"sync/atomic"
	"time"
)

// State is the validated, materialized model: keyed indexes for
// referential integrity plus the ordered entity slices a snapshot needs.
// NewState and Apply are the only code that enforces the integrity rules;
// Validate, the serving writer and WAL replay all go through them.
//
// Nodes are never removed, so posts, comments and users keep insertion
// order (a reply always follows its parent). Edges are indexed by
// canonical key to their slice position, so removing one is a lookup plus
// a swap with the last edge: O(1), at the cost of edge order. Friendships
// are stored with ordered endpoints (User1 < User2).
//
// A State is not safe for concurrent use, except that a View may be read
// by other goroutines while the owner keeps applying changes.
type State struct {
	posts    map[ID]struct{}
	comments map[ID]ID // comment → its root post
	users    map[ID]struct{}
	friendAt map[[2]ID]int // canonical friendship key → index in s.Friendships
	likeAt   map[[2]ID]int // (user, comment) → index in s.Likes
	s        Snapshot

	// Copy-on-write for views: shared marks that a view was taken since
	// the edge arrays were last detached; views counts views not yet
	// released (they may be read on other goroutines, hence atomic).
	shared bool
	views  atomic.Int32

	// OnDetach, when non-nil, observes the pause of every copy-on-write
	// detach of the edge arrays.
	OnDetach func(time.Duration)
}

// NewState validates s as an initial state and returns a State holding a
// copy of it. Entities are checked in the order posts, users, comments
// (each reply after its parent), friendships, likes. The error wraps
// ErrIntegrity.
func NewState(s *Snapshot) (*State, error) {
	st := &State{
		posts:    make(map[ID]struct{}, len(s.Posts)),
		comments: make(map[ID]ID, len(s.Comments)),
		users:    make(map[ID]struct{}, len(s.Users)),
		friendAt: make(map[[2]ID]int, len(s.Friendships)),
		likeAt:   make(map[[2]ID]int, len(s.Likes)),
		s: Snapshot{
			Posts:       make([]Post, 0, len(s.Posts)),
			Comments:    make([]Comment, 0, len(s.Comments)),
			Users:       make([]User, 0, len(s.Users)),
			Friendships: make([]Friendship, 0, len(s.Friendships)),
			Likes:       make([]Like, 0, len(s.Likes)),
		},
	}
	var err error
	add := func(ch Change) {
		if err == nil {
			err = st.apply(&ch)
		}
	}
	for _, p := range s.Posts {
		add(Change{Kind: KindAddPost, Post: p})
	}
	for _, u := range s.Users {
		add(Change{Kind: KindAddUser, User: u})
	}
	for _, c := range s.Comments {
		add(Change{Kind: KindAddComment, Comment: c})
	}
	for _, f := range s.Friendships {
		add(Change{Kind: KindAddFriendship, Friendship: f})
	}
	for _, l := range s.Likes {
		add(Change{Kind: KindAddLike, Like: l})
	}
	if err != nil {
		return nil, fmt.Errorf("initial state: %w", err)
	}
	return st, nil
}

// Apply checks and applies one request's changes in order. It is
// all-or-nothing: on the first invalid change every earlier change of the
// request is undone and the error, wrapping ErrIntegrity, is returned.
func (st *State) Apply(changes []Change) error {
	for i := range changes {
		if err := st.apply(&changes[i]); err != nil {
			for j := i - 1; j >= 0; j-- {
				st.undo(&changes[j])
			}
			return fmt.Errorf("change %d (%s): %w", i, changes[i].Kind, err)
		}
	}
	return nil
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

// apply checks one change and, only if it is valid, applies it.
func (st *State) apply(ch *Change) error {
	switch ch.Kind {
	case KindAddPost:
		p := ch.Post
		if _, dup := st.posts[p.ID]; dup {
			return violation("duplicate post id %d", p.ID)
		}
		st.posts[p.ID] = struct{}{}
		st.s.Posts = append(st.s.Posts, p)
	case KindAddComment:
		c := ch.Comment
		if _, dup := st.comments[c.ID]; dup {
			return violation("duplicate comment id %d", c.ID)
		}
		if _, ok := st.posts[c.PostID]; !ok {
			return violation("comment %d references missing root post %d", c.ID, c.PostID)
		}
		if _, isPost := st.posts[c.ParentID]; isPost {
			if c.ParentID != c.PostID {
				return violation("comment %d replies to post %d but roots at %d", c.ID, c.ParentID, c.PostID)
			}
		} else if root, isComment := st.comments[c.ParentID]; !isComment {
			return violation("comment %d references missing parent %d", c.ID, c.ParentID)
		} else if root != c.PostID {
			return violation("comment %d root post %d differs from parent's root %d", c.ID, c.PostID, root)
		}
		st.comments[c.ID] = c.PostID
		st.s.Comments = append(st.s.Comments, c)
	case KindAddUser:
		u := ch.User
		if _, dup := st.users[u.ID]; dup {
			return violation("duplicate user id %d", u.ID)
		}
		st.users[u.ID] = struct{}{}
		st.s.Users = append(st.s.Users, u)
	case KindAddFriendship:
		f := ch.Friendship
		if f.User1 == f.User2 {
			return violation("self-friendship of user %d", f.User1)
		}
		for _, u := range [2]ID{f.User1, f.User2} {
			if _, ok := st.users[u]; !ok {
				return violation("friendship references missing user %d", u)
			}
		}
		if _, dup := st.friendAt[f.key()]; dup {
			return violation("duplicate friendship %d–%d", f.User1, f.User2)
		}
		st.addFriendship(f)
	case KindAddLike:
		l := ch.Like
		if _, ok := st.users[l.UserID]; !ok {
			return violation("like references missing user %d", l.UserID)
		}
		if _, ok := st.comments[l.CommentID]; !ok {
			return violation("like references missing comment %d", l.CommentID)
		}
		if _, dup := st.likeAt[l.key()]; dup {
			return violation("duplicate like %d→%d", l.UserID, l.CommentID)
		}
		st.addLike(l)
	case KindRemoveFriendship:
		f := ch.Friendship
		if _, ok := st.friendAt[f.key()]; !ok {
			return violation("removal of missing friendship %d–%d", f.User1, f.User2)
		}
		st.removeFriendship(f)
	case KindRemoveLike:
		l := ch.Like
		if _, ok := st.likeAt[l.key()]; !ok {
			return violation("removal of missing like %d→%d", l.UserID, l.CommentID)
		}
		st.removeLike(l)
	default:
		return violation("unknown change kind %d", ch.Kind)
	}
	return nil
}

// undo reverts a change apply accepted. Apply undoes a request's changes
// in reverse order, so a node being undone is still the last of its slice.
func (st *State) undo(ch *Change) {
	switch ch.Kind {
	case KindAddPost:
		delete(st.posts, ch.Post.ID)
		st.s.Posts = st.s.Posts[:len(st.s.Posts)-1]
	case KindAddComment:
		delete(st.comments, ch.Comment.ID)
		st.s.Comments = st.s.Comments[:len(st.s.Comments)-1]
	case KindAddUser:
		delete(st.users, ch.User.ID)
		st.s.Users = st.s.Users[:len(st.s.Users)-1]
	case KindAddFriendship:
		st.removeFriendship(ch.Friendship)
	case KindAddLike:
		st.removeLike(ch.Like)
	case KindRemoveFriendship:
		st.addFriendship(ch.Friendship)
	case KindRemoveLike:
		st.addLike(ch.Like)
	}
}

func (st *State) addFriendship(f Friendship) {
	k := f.key()
	st.friendAt[k] = len(st.s.Friendships)
	st.s.Friendships = append(st.s.Friendships, Friendship{User1: k[0], User2: k[1]})
}

func (st *State) addLike(l Like) {
	st.likeAt[l.key()] = len(st.s.Likes)
	st.s.Likes = append(st.s.Likes, l)
}

func (st *State) removeFriendship(f Friendship) {
	st.detach()
	st.s.Friendships = swapRemove(st.friendAt, st.s.Friendships, f.key())
}

func (st *State) removeLike(l Like) {
	st.detach()
	st.s.Likes = swapRemove(st.likeAt, st.s.Likes, l.key())
}

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

type edge interface{ key() [2]ID }

// swapRemove deletes the edge keyed k, which must be present, by moving
// the last edge into its slot.
func swapRemove[E edge](at map[[2]ID]int, list []E, k [2]ID) []E {
	i, last := at[k], len(list)-1
	list[i] = list[last]
	at[list[i].key()] = i
	delete(at, k)
	return list[:last]
}
