package model

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func stateFixture(t *testing.T) *State {
	t.Helper()
	st, err := NewState(&Snapshot{
		Posts:       []Post{{ID: 1, Timestamp: 1}, {ID: 2, Timestamp: 2}},
		Comments:    []Comment{{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1}},
		Users:       []User{{ID: 100}, {ID: 101}},
		Friendships: []Friendship{{User1: 101, User2: 100}},
		Likes:       []Like{{UserID: 100, CommentID: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStateApply covers every integrity rule with one accepted and one
// rejected change each.
func TestStateApply(t *testing.T) {
	cases := []struct {
		name    string
		change  Change
		wantErr string // substring; empty means accepted
	}{
		{"new post", Change{Kind: KindAddPost, Post: Post{ID: 3}}, ""},
		{"dup post", Change{Kind: KindAddPost, Post: Post{ID: 1}}, "duplicate post"},
		{"comment on post", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 1, PostID: 1}}, ""},
		{"comment on comment", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 10, PostID: 1}}, ""},
		{"dup comment", Change{Kind: KindAddComment, Comment: Comment{ID: 10, ParentID: 1, PostID: 1}}, "duplicate comment"},
		{"comment root mismatch via post parent", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 1, PostID: 99}}, "missing root post"},
		{"comment parent unknown", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 999, PostID: 1}}, "missing parent"},
		{"comment root differs from parent", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 10, PostID: 2}}, "differs from parent's root"},
		{"comment replies to another post", Change{Kind: KindAddComment, Comment: Comment{ID: 11, ParentID: 2, PostID: 1}}, "replies to post"},
		{"new user", Change{Kind: KindAddUser, User: User{ID: 102}}, ""},
		{"dup user", Change{Kind: KindAddUser, User: User{ID: 100}}, "duplicate user"},
		{"self friendship", Change{Kind: KindAddFriendship, Friendship: Friendship{User1: 100, User2: 100}}, "self-friendship"},
		{"friendship unknown user", Change{Kind: KindAddFriendship, Friendship: Friendship{User1: 100, User2: 999}}, "missing user 999"},
		{"dup friendship reversed", Change{Kind: KindAddFriendship, Friendship: Friendship{User1: 100, User2: 101}}, "duplicate friendship"},
		{"new like", Change{Kind: KindAddLike, Like: Like{UserID: 101, CommentID: 10}}, ""},
		{"dup like", Change{Kind: KindAddLike, Like: Like{UserID: 100, CommentID: 10}}, "duplicate like"},
		{"like unknown user", Change{Kind: KindAddLike, Like: Like{UserID: 999, CommentID: 10}}, "missing user"},
		{"like unknown comment", Change{Kind: KindAddLike, Like: Like{UserID: 100, CommentID: 999}}, "missing comment"},
		{"remove friendship reversed", Change{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 101}}, ""},
		{"remove missing friendship", Change{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 102}}, "removal of missing friendship"},
		{"remove like", Change{Kind: KindRemoveLike, Like: Like{UserID: 100, CommentID: 10}}, ""},
		{"remove missing like", Change{Kind: KindRemoveLike, Like: Like{UserID: 101, CommentID: 10}}, "removal of missing like"},
		{"unknown kind", Change{Kind: ChangeKind(99)}, "unknown change kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := stateFixture(t).Apply([]Change{tc.change})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Apply: %v, want accepted", err)
				}
				return
			}
			if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Apply: %v, want an integrity violation containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewStateErrorOrder: with several violations in one initial state,
// NewState reports the one a check of every entity one by one finds
// first, in the order posts, users, comments by position, friendships,
// likes. Its 40,000 comments span several of the chunks NewState checks
// comments in: comment i replies to comment i−10 (i ≥ 10) under post
// i mod 10, so some parents lie in an earlier chunk.
func TestNewStateErrorOrder(t *testing.T) {
	const posts, users, comments = 10, 50, 40000
	base := func() *Snapshot {
		s := &Snapshot{}
		for i := 0; i < posts; i++ {
			s.Posts = append(s.Posts, Post{ID: ID(1 + i), Timestamp: int64(i)})
		}
		for i := 0; i < users; i++ {
			s.Users = append(s.Users, User{ID: ID(1000 + i)})
		}
		for i := 0; i < comments; i++ {
			c := Comment{ID: ID(100000 + i), Timestamp: int64(i), PostID: ID(1 + i%posts)}
			c.ParentID = c.PostID
			if i >= posts {
				c.ParentID = ID(100000 + i - posts)
			}
			s.Comments = append(s.Comments, c)
		}
		for i := 0; i+1 < users; i += 2 {
			s.Friendships = append(s.Friendships, Friendship{User1: ID(1000 + i), User2: ID(1001 + i)})
		}
		for i := 0; i < users; i++ {
			s.Likes = append(s.Likes, Like{UserID: ID(1000 + i), CommentID: ID(100000 + 7*i)})
		}
		return s
	}
	// Each violation breaks a valid base and returns the error it causes.
	type violation func(s *Snapshot) string
	dupPost := func(s *Snapshot) string {
		s.Posts[4].ID = s.Posts[3].ID
		return fmt.Sprintf("duplicate post id %d", s.Posts[3].ID)
	}
	dupUser := func(s *Snapshot) string {
		s.Users[30].ID = s.Users[2].ID
		return fmt.Sprintf("duplicate user id %d", s.Users[2].ID)
	}
	dupComment := func(i int) violation {
		return func(s *Snapshot) string {
			s.Comments[i].ID = s.Comments[i-1].ID
			return fmt.Sprintf("duplicate comment id %d", s.Comments[i].ID)
		}
	}
	replyBeforeParent := func(i int) violation {
		return func(s *Snapshot) string {
			c := &s.Comments[i]
			c.ParentID = s.Comments[i+posts].ID
			return fmt.Sprintf("comment %d references missing parent %d", c.ID, c.ParentID)
		}
	}
	rootMismatch := func(i int) violation {
		return func(s *Snapshot) string {
			c := &s.Comments[i]
			parentRoot := c.PostID
			c.PostID = 1 + c.PostID%posts
			return fmt.Sprintf("comment %d root post %d differs from parent's root %d", c.ID, c.PostID, parentRoot)
		}
	}
	badFriendship := func(s *Snapshot) string {
		s.Friendships = append(s.Friendships, Friendship{User1: 1000, User2: 999})
		return "friendship references missing user 999"
	}
	badLike := func(s *Snapshot) string {
		s.Likes = append(s.Likes, Like{UserID: 1001, CommentID: 99})
		return "like references missing comment 99"
	}

	cases := []struct {
		name       string
		violations []violation // in check order; the first one's error wins
	}{
		{"post first", []violation{dupPost, dupUser, replyBeforeParent(20), rootMismatch(16390), dupComment(17000), rootMismatch(33000), badFriendship, badLike}},
		{"user before comments", []violation{dupUser, replyBeforeParent(20), rootMismatch(16390), dupComment(17000), badFriendship, badLike}},
		{"reply before its parent", []violation{replyBeforeParent(20), rootMismatch(16390), dupComment(17000), rootMismatch(33000), badFriendship, badLike}},
		{"root mismatch, parent in an earlier chunk", []violation{rootMismatch(16390), dupComment(17000), rootMismatch(33000), badFriendship, badLike}},
		{"duplicate comment before later comments", []violation{dupComment(17000), rootMismatch(33000), badFriendship, badLike}},
		{"duplicate comment before a later reply", []violation{dupComment(15), replyBeforeParent(20), badFriendship, badLike}},
		{"root mismatch in the last chunk", []violation{rootMismatch(33000), badFriendship, badLike}},
		{"friendship before like", []violation{badFriendship, badLike}},
		{"like", []violation{badLike}},
		{"none", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			want := ""
			for k, v := range tc.violations {
				if msg := v(s); k == 0 {
					want = msg
				}
			}
			_, err := NewState(s)
			if want == "" {
				if err != nil {
					t.Fatalf("NewState: %v, want accepted", err)
				}
				return
			}
			if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewState: %v, want an integrity violation containing %q", err, want)
			}
		})
	}
}

// TestStateRemoveMissingFriendship uses two known users with no edge so
// the existence check itself (not a user check) rejects.
func TestStateRemoveMissingFriendship(t *testing.T) {
	st := stateFixture(t)
	if _, err := st.Apply([]Change{{Kind: KindAddUser, User: User{ID: 102}}}); err != nil {
		t.Fatal(err)
	}
	_, err := st.Apply([]Change{{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 102}}})
	if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), "removal of missing friendship") {
		t.Fatalf("Apply: %v, want an integrity violation containing %q", err, "removal of missing friendship")
	}
}

// TestStateRollbackIsComplete applies a request whose last change is
// invalid: every earlier change must be undone, so the state equals the
// one before the request and the valid prefix then applies cleanly.
func TestStateRollbackIsComplete(t *testing.T) {
	st := stateFixture(t)
	before := snapshotOf(st)
	req := []Change{
		{Kind: KindAddUser, User: User{ID: 200}},
		{Kind: KindAddPost, Post: Post{ID: 5}},
		{Kind: KindAddComment, Comment: Comment{ID: 50, ParentID: 5, PostID: 5}},
		{Kind: KindAddLike, Like: Like{UserID: 200, CommentID: 50}},
		{Kind: KindAddFriendship, Friendship: Friendship{User1: 200, User2: 100}},
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 101}},
		{Kind: KindRemoveLike, Like: Like{UserID: 100, CommentID: 10}},
		{Kind: KindAddPost, Post: Post{ID: 1}}, // duplicate → rejects the request
	}
	if _, err := st.Apply(req); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("request with duplicate post: %v, want an integrity violation", err)
	}
	if err := sameState(st, before); err != nil {
		t.Fatalf("rejected request left a trace: %v", err)
	}
	if _, err := st.Apply(req[:7]); err != nil {
		t.Fatalf("valid prefix rejected after rollback: %v", err)
	}
}

// TestStateViewCopyOnWrite: a view never changes under later applies; the
// first edge removal while it is held detaches the edge arrays once, and
// none is needed after release.
func TestStateViewCopyOnWrite(t *testing.T) {
	st := stateFixture(t)
	detaches := 0
	st.OnDetach = func(time.Duration) { detaches++ }
	view, release := st.View()
	want := materialize(view)

	changes := []Change{
		{Kind: KindAddUser, User: User{ID: 102}},
		{Kind: KindAddLike, Like: Like{UserID: 101, CommentID: 10}},
		{Kind: KindRemoveLike, Like: Like{UserID: 100, CommentID: 10}},
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 101}},
	}
	for _, ch := range changes {
		if _, err := st.Apply([]Change{ch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sameSnapshot(materialize(view), want); err != nil {
		t.Fatalf("view changed under applies: %v", err)
	}
	if detaches != 1 {
		t.Fatalf("%d detaches while the view was held, want 1", detaches)
	}

	release()
	st.View()
	if _, err := st.Apply([]Change{{Kind: KindRemoveLike, Like: Like{UserID: 101, CommentID: 10}}}); err != nil {
		t.Fatal(err)
	}
	if detaches != 2 {
		t.Fatalf("a new view's first removal did not detach (%d detaches)", detaches)
	}
}

// FuzzState is the differential check of State against the reference: a
// naive linear scan of the reference Snapshot's slices decides every
// request, Snapshot.Apply materializes the accepted ones, and the state
// must agree on every decision and equal the reference after every
// request (edges compared as multisets, since removal reorders them).
// Every resolved index of an accepted request must map back to its
// change's id, and every edge key unpack to its endpoints; a rejected
// request must leave every table, index and slice exactly as before. A
// view taken along the way must not change until it is released.
//
// The input is read four bytes per change over small id ranges, so
// duplicates, dangling references and removals of missing edges are
// common; a set high bit in the first byte ends a request.
func FuzzState(f *testing.F) {
	f.Add([]byte{
		0x80, 1, 0, 0, // add post 2
		0x82, 2, 0, 0, // add user 3
		0x82, 3, 0, 0, // add user 4
		0x01, 1, 1, 2, // add comment 2 on post 2
		0x81, 2, 1, 3, // add comment 3, a reply to comment 2
		0x83, 2, 3, 0, // add friendship 3–4
		0x84, 2, 2, 0, // add like 3→3
		0x05, 3, 2, 0, // remove friendship 4–3
		0x86, 2, 2, 0, // remove like 3→3
	})
	f.Add([]byte{0x80, 1, 0, 0, 0x80, 1, 0, 0, 0x83, 1, 1, 0, 0x87, 0, 0, 0})
	f.Add([]byte{0x02, 1, 0, 0, 0x02, 2, 0, 0, 0x03, 1, 2, 0, 0x05, 2, 1, 0, 0x83, 1, 2, 0, 0x85, 1, 2, 0})
	f.Add([]byte{
		0x02, 0, 0, 0, 0x02, 1, 0, 0, 0x02, 2, 0, 0, // add users 1, 2, 3
		0x03, 0, 1, 0, 0x83, 0, 2, 0, // add friendships 1–2, 1–3
		0x05, 0, 1, 0, // remove friendship 1–2: 1–3 moves into its slot
		0x00, 0, 0, 0, 0x80, 0, 0, 0, // add post 1 twice: the request is rejected
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := NewState(&Snapshot{})
		if err != nil {
			t.Fatal(err)
		}
		ref := &Snapshot{}
		var (
			view     *View
			viewCopy *Snapshot
			release  func()
			req      []Change
			requests int
		)
		for i := 0; i+4 <= len(data); i += 4 {
			req = append(req, fuzzChange(data[i:i+4], int64(i)))
			if data[i]&0x80 == 0 && i+8 <= len(data) {
				continue
			}
			next, refErr := naiveApply(ref, req)
			before := tablesOf(st)
			refs, stErr := st.Apply(req)
			if (refErr == nil) != (stErr == nil) {
				t.Fatalf("request %d %+v: State.Apply = %v, naive check = %v", requests, req, stErr, refErr)
			}
			if stErr != nil && !errors.Is(stErr, ErrIntegrity) {
				t.Fatalf("request %d: rejection %v does not wrap ErrIntegrity", requests, stErr)
			}
			if refErr == nil {
				ref = next
				if err := checkRefs(st, req, refs); err != nil {
					t.Fatalf("request %d %+v: %v", requests, req, err)
				}
			} else if err := sameTables(st, before, req); err != nil {
				t.Fatalf("rejected request %d %+v: %v", requests, req, err)
			}
			if err := sameState(st, ref); err != nil {
				t.Fatalf("after request %d %+v: %v", requests, req, err)
			}
			if requests%3 == 0 {
				if view != nil {
					if err := sameSnapshot(materialize(view), viewCopy); err != nil {
						t.Fatalf("view changed before release: %v", err)
					}
					release()
				}
				view, release = st.View()
				viewCopy = materialize(view)
			}
			req = req[:0]
			requests++
		}
	})
}

// fuzzChange decodes one change from four fuzz bytes: the kind (7 is not
// a valid kind) and up to three small ids.
func fuzzChange(b []byte, ts int64) Change {
	post := func(x byte) ID { return ID(x%4) + 1 }
	comment := func(x byte) ID { return ID(x%6) + 1 }
	user := func(x byte) ID { return ID(x%5) + 1 }
	ch := Change{Kind: ChangeKind(b[0] & 0x07)}
	switch ch.Kind {
	case KindAddPost:
		ch.Post = Post{ID: post(b[1]), Timestamp: ts}
	case KindAddComment:
		parent := comment(b[3] >> 1)
		if b[3]&1 == 0 {
			parent = post(b[3] >> 1)
		}
		ch.Comment = Comment{ID: comment(b[1]), Timestamp: ts, ParentID: parent, PostID: post(b[2])}
	case KindAddUser:
		ch.User = User{ID: user(b[1])}
	case KindAddFriendship, KindRemoveFriendship:
		ch.Friendship = Friendship{User1: user(b[1]), User2: user(b[2])}
	case KindAddLike, KindRemoveLike:
		ch.Like = Like{UserID: user(b[1]), CommentID: comment(b[2])}
	}
	return ch
}

// naiveApply is the reference for State.Apply: it checks each change of a
// request by scanning the slices of a working copy of s, applies it there
// with Snapshot.Apply, and returns the copy, or an error on the first
// invalid change (s itself is never modified).
func naiveApply(s *Snapshot, req []Change) (*Snapshot, error) {
	w := s.Clone()
	for _, ch := range req {
		if err := naiveCheck(w, ch); err != nil {
			return nil, err
		}
		w.Apply(&ChangeSet{Changes: []Change{ch}})
	}
	return w, nil
}

func naiveCheck(s *Snapshot, ch Change) error {
	hasPost := func(id ID) bool { return slices.ContainsFunc(s.Posts, func(p Post) bool { return p.ID == id }) }
	hasUser := func(id ID) bool { return slices.ContainsFunc(s.Users, func(u User) bool { return u.ID == id }) }
	comment := func(id ID) (Comment, bool) {
		i := slices.IndexFunc(s.Comments, func(c Comment) bool { return c.ID == id })
		if i < 0 {
			return Comment{}, false
		}
		return s.Comments[i], true
	}
	hasFriendship := func(f Friendship) bool {
		return slices.ContainsFunc(s.Friendships, func(g Friendship) bool {
			return (g.User1 == f.User1 && g.User2 == f.User2) || (g.User1 == f.User2 && g.User2 == f.User1)
		})
	}
	fail := errors.New("naive check rejects")
	switch ch.Kind {
	case KindAddPost:
		if hasPost(ch.Post.ID) {
			return fail
		}
	case KindAddComment:
		c := ch.Comment
		if _, dup := comment(c.ID); dup || !hasPost(c.PostID) {
			return fail
		}
		if hasPost(c.ParentID) {
			if c.ParentID != c.PostID {
				return fail
			}
		} else if parent, ok := comment(c.ParentID); !ok || parent.PostID != c.PostID {
			return fail
		}
	case KindAddUser:
		if hasUser(ch.User.ID) {
			return fail
		}
	case KindAddFriendship:
		f := ch.Friendship
		if f.User1 == f.User2 || !hasUser(f.User1) || !hasUser(f.User2) || hasFriendship(f) {
			return fail
		}
	case KindAddLike:
		l := ch.Like
		if _, ok := comment(l.CommentID); !ok || !hasUser(l.UserID) || slices.Contains(s.Likes, l) {
			return fail
		}
	case KindRemoveFriendship:
		if !hasFriendship(ch.Friendship) {
			return fail
		}
	case KindRemoveLike:
		if !slices.Contains(s.Likes, ch.Like) {
			return fail
		}
	default:
		return fail
	}
	return nil
}

// materialize reads a view into a Snapshot, family by family, as the
// snapshot encoder reads it.
func materialize(v *View) *Snapshot {
	s := &Snapshot{}
	for f := KeyKind(0); f < Families; f++ {
		s.AppendEntities(f, v.AppendFields(nil, f, 0, v.Len(f)))
	}
	return s
}

// snapshotOf copies the state's current contents through a view it does
// not mark shared, so reading it changes no copy-on-write decision.
func snapshotOf(st *State) *Snapshot {
	return materialize(&View{nodes: st.nodes(), users: st.users.keys, friends: st.friends.keys, likes: st.likes.keys})
}

// sameState compares the state with want (see sameSnapshot) and checks
// that its edge indexes point at their keys and that a friendship's key
// holds its users' indices in ascending order.
func sameState(st *State, want *Snapshot) error {
	if err := sameSnapshot(snapshotOf(st), want); err != nil {
		return err
	}
	if n := occupied(&st.friends) + occupied(&st.likes); n != len(st.friends.keys)+len(st.likes.keys) {
		return fmt.Errorf("%d occupied edge slots for %d edges", n, len(st.friends.keys)+len(st.likes.keys))
	}
	for _, t := range []*slotTable[uint64]{&st.friends, &st.likes} {
		for i, k := range t.keys {
			if at, ok := t.index(k); !ok || at != i {
				return fmt.Errorf("edge key %x resolves to %d, %v; want %d", k, at, ok, i)
			}
		}
	}
	for _, k := range st.friends.keys {
		if a, b := unpack(k); a >= b {
			return fmt.Errorf("friendship key %x holds unordered indices", k)
		}
	}
	return nil
}

// occupied counts the table's occupied slots.
func occupied[K ~int64 | ~uint64](t *slotTable[K]) int {
	n := 0
	for _, s := range t.slots {
		if s != 0 {
			n++
		}
	}
	return n
}

type edge interface{ key() [2]ID }

// checkRefs checks an accepted request's resolved changes: each index maps
// back to its change's id, a comment's B is its root post, and each edge
// key unpacks to the change's endpoints.
func checkRefs(st *State, req []Change, refs []Ref) error {
	if len(refs) != len(req) {
		return fmt.Errorf("%d refs for %d changes", len(refs), len(req))
	}
	for i, ch := range req {
		r := refs[i]
		ok := r.Kind == ch.Kind
		switch ch.Kind {
		case KindAddPost:
			ok = ok && st.posts.IDOf(int(r.A)) == ch.Post.ID
		case KindAddComment:
			ok = ok && st.comments.IDOf(int(r.A)) == ch.Comment.ID && st.posts.IDOf(int(r.B)) == ch.Comment.PostID && int(st.commentRecs[r.A].root) == int(r.B)
		case KindAddUser:
			ok = ok && st.users.IDOf(int(r.A)) == ch.User.ID
		case KindAddFriendship, KindRemoveFriendship:
			f := ch.Friendship
			lo, hi := unpack(friendKey(r.A, r.B))
			ok = ok && st.users.IDOf(int(r.A)) == f.User1 && st.users.IDOf(int(r.B)) == f.User2 &&
				(Friendship{User1: st.users.IDOf(int(lo)), User2: st.users.IDOf(int(hi))}).key() == f.key()
		case KindAddLike, KindRemoveLike:
			u, c := unpack(pair(r.A, r.B))
			ok = ok && st.users.IDOf(int(u)) == ch.Like.UserID && st.comments.IDOf(int(c)) == ch.Like.CommentID
		}
		if !ok {
			return fmt.Errorf("change %d %+v resolved to %+v", i, ch, r)
		}
	}
	return nil
}

// tables is a copy of everything a State indexes.
type tables struct {
	posts, comments, users []ID
	postTimes              []int64
	commentRecs            []commentRec
	friends, likes         []uint64
	s                      *Snapshot
}

func tablesOf(st *State) tables {
	return tables{
		posts: slices.Clone(st.posts.keys), comments: slices.Clone(st.comments.keys), users: slices.Clone(st.users.keys),
		postTimes: slices.Clone(st.postTimes), commentRecs: slices.Clone(st.commentRecs),
		friends: slices.Clone(st.friends.keys), likes: slices.Clone(st.likes.keys),
		s: snapshotOf(st),
	}
}

// sameTables checks that st holds exactly the tables want copied, slice
// order included, that every id resolves as it did, and that no node id
// req added resolves any more.
func sameTables(st *State, want tables, req []Change) error {
	got := tablesOf(st)
	if !slices.Equal(got.posts, want.posts) || !slices.Equal(got.comments, want.comments) ||
		!slices.Equal(got.users, want.users) || !slices.Equal(got.postTimes, want.postTimes) ||
		!slices.Equal(got.commentRecs, want.commentRecs) {
		return errors.New("node tables differ")
	}
	if !slices.Equal(got.friends, want.friends) || !slices.Equal(got.likes, want.likes) {
		return errors.New("edge indexes differ")
	}
	for _, t := range []*slotTable[uint64]{&st.friends, &st.likes} {
		for i, k := range t.keys {
			if at, ok := t.index(k); !ok || at != i {
				return fmt.Errorf("edge key %x resolves to %d, %v; want %d", k, at, ok, i)
			}
		}
	}
	if !reflect.DeepEqual(got.s, want.s) {
		return errors.New("entity slices differ")
	}
	for _, m := range []struct {
		m   *IDMap
		ids []ID
	}{{&st.posts, want.posts}, {&st.comments, want.comments}, {&st.users, want.users}} {
		for i, id := range m.ids {
			if got, ok := m.m.Index(id); !ok || got != i {
				return fmt.Errorf("id %d resolves to %d, %v; want %d", id, got, ok, i)
			}
		}
	}
	for _, ch := range req {
		var m *IDMap
		var ids []ID
		var id ID
		switch ch.Kind {
		case KindAddPost:
			m, ids, id = &st.posts, want.posts, ch.Post.ID
		case KindAddComment:
			m, ids, id = &st.comments, want.comments, ch.Comment.ID
		case KindAddUser:
			m, ids, id = &st.users, want.users, ch.User.ID
		default:
			continue
		}
		if _, ok := m.Index(id); ok && !slices.Contains(ids, id) {
			return fmt.Errorf("rolled-back id %d still resolves", id)
		}
	}
	return nil
}

// sameSnapshot compares nodes in order and edges as multisets, with
// friendships compared by canonical key.
func sameSnapshot(got, want *Snapshot) error {
	if !slices.Equal(got.Posts, want.Posts) || !slices.Equal(got.Comments, want.Comments) || !slices.Equal(got.Users, want.Users) {
		return errors.New("nodes differ")
	}
	if !slices.Equal(sortedKeys(got.Friendships), sortedKeys(want.Friendships)) {
		return errors.New("friendships differ")
	}
	if !slices.Equal(sortedKeys(got.Likes), sortedKeys(want.Likes)) {
		return errors.New("likes differ")
	}
	return nil
}

func sortedKeys[E edge](es []E) [][2]ID {
	out := make([][2]ID, len(es))
	for i, e := range es {
		out[i] = e.key()
	}
	slices.SortFunc(out, func(a, b [2]ID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return out
}
