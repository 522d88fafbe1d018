package model

import (
	"fmt"
	"slices"
)

// The codec table. kinds holds, for each change kind, the name String
// returns, the tag that leads its row in a dataset change file, its name
// in an /update body (WireName), the entity family it carries and whether
// it removes. fieldNames holds each family's int64 fields in the one
// order every codec writes them: the dataset CSV files, WAL records and
// snapshots, and /update bodies. A snapshot's five arrays are the
// families in KeyKind order. The functions below are the only code that
// maps a kind to its names and family, or a family's fields to the struct
// fields of Post, Comment, User, Friendship and Like.

// Kinds is the number of change kinds: every ChangeKind below it names one.
const Kinds = KindRemoveLike + 1

// Families is the number of entity families: every KeyKind below it names
// one.
const Families = KeyLike + 1

// MaxFields is the largest number of fields of a family (a comment's).
const MaxFields = 4

var kinds = [Kinds]struct {
	name, tag, wire string
	family          KeyKind
	removes         bool
}{
	KindAddPost:          {"AddPost", "post", "add-post", KeyPost, false},
	KindAddComment:       {"AddComment", "comment", "add-comment", KeyComment, false},
	KindAddUser:          {"AddUser", "user", "add-user", KeyUser, false},
	KindAddFriendship:    {"AddFriendship", "friend", "add-friendship", KeyFriendship, false},
	KindAddLike:          {"AddLike", "like", "add-like", KeyLike, false},
	KindRemoveFriendship: {"RemoveFriendship", "unfriend", "remove-friendship", KeyFriendship, true},
	KindRemoveLike:       {"RemoveLike", "unlike", "remove-like", KeyLike, true},
}

var fieldNames = [Families][]string{
	KeyPost:       {"id", "timestamp"},
	KeyComment:    {"id", "timestamp", "parent", "post"},
	KeyUser:       {"id"},
	KeyFriendship: {"user1", "user2"},
	KeyLike:       {"user", "comment"},
}

// String names the change kind as Go spells its constant, without Kind.
func (k ChangeKind) String() string {
	if k >= Kinds {
		return fmt.Sprintf("ChangeKind(%d)", uint8(k))
	}
	return kinds[k].name
}

// WireName is the kind's name in an /update body, or "" for an unknown
// kind.
func (k ChangeKind) WireName() string {
	if k >= Kinds {
		return ""
	}
	return kinds[k].wire
}

// WireKind returns the kind whose WireName is name; ok is false for none.
func WireKind(name []byte) (ChangeKind, bool) {
	for k := range kinds {
		if string(name) == kinds[k].wire {
			return ChangeKind(k), true
		}
	}
	return 0, false
}

// kindOfTag returns the kind whose dataset tag is tag; ok is false for
// none.
func kindOfTag(tag []byte) (ChangeKind, bool) {
	for k := range kinds {
		if string(tag) == kinds[k].tag {
			return ChangeKind(k), true
		}
	}
	return 0, false
}

// IsRemoval reports whether the kind deletes model content.
func (k ChangeKind) IsRemoval() bool { return k < Kinds && kinds[k].removes }

// Family returns the entity family a change of kind k carries; ok is false
// for an unknown kind.
func (k ChangeKind) Family() (f KeyKind, ok bool) {
	if k >= Kinds {
		return 0, false
	}
	return kinds[k].family, true
}

// Fields names family f's fields in codec order, as the /update schema
// spells them; its length is the family's field count.
func (f KeyKind) Fields() []string { return fieldNames[f] }

// Each entity's fields in codec order: an append function reads them, an
// Of function builds the entity from them.

func (p *Post) appendFields(dst []int64) []int64 { return append(dst, p.ID, p.Timestamp) }
func postOf(v []int64) Post                      { return Post{ID: v[0], Timestamp: v[1]} }

func (c *Comment) appendFields(dst []int64) []int64 {
	return append(dst, c.ID, c.Timestamp, c.ParentID, c.PostID)
}
func commentOf(v []int64) Comment {
	return Comment{ID: v[0], Timestamp: v[1], ParentID: v[2], PostID: v[3]}
}

func (u *User) appendFields(dst []int64) []int64 { return append(dst, u.ID) }
func userOf(v []int64) User                      { return User{ID: v[0]} }

func (e *Friendship) appendFields(dst []int64) []int64 { return append(dst, e.User1, e.User2) }
func friendshipOf(v []int64) Friendship                { return Friendship{User1: v[0], User2: v[1]} }

func (l *Like) appendFields(dst []int64) []int64 { return append(dst, l.UserID, l.CommentID) }
func likeOf(v []int64) Like                      { return Like{UserID: v[0], CommentID: v[1]} }

// AppendFields appends to dst the fields of family f in ch's field group,
// in codec order. f must be a family; the last one is the default case,
// which keeps the method within the compiler's inlining budget for the
// WAL encoder's loop.
func (ch *Change) AppendFields(dst []int64, f KeyKind) []int64 {
	switch f {
	case KeyPost:
		return ch.Post.appendFields(dst)
	case KeyComment:
		return ch.Comment.appendFields(dst)
	case KeyUser:
		return ch.User.appendFields(dst)
	case KeyFriendship:
		return ch.Friendship.appendFields(dst)
	default:
		return ch.Like.appendFields(dst)
	}
}

// SetFields sets the field group of family f in ch to the fields vals
// holds in codec order, as many as the family has.
func (ch *Change) SetFields(f KeyKind, vals []int64) {
	switch f {
	case KeyPost:
		ch.Post = postOf(vals)
	case KeyComment:
		ch.Comment = commentOf(vals)
	case KeyUser:
		ch.User = userOf(vals)
	case KeyFriendship:
		ch.Friendship = friendshipOf(vals)
	case KeyLike:
		ch.Like = likeOf(vals)
	}
}

// Len returns the length of s's array of family f.
func (s *Snapshot) Len(f KeyKind) int {
	switch f {
	case KeyPost:
		return len(s.Posts)
	case KeyComment:
		return len(s.Comments)
	case KeyUser:
		return len(s.Users)
	case KeyFriendship:
		return len(s.Friendships)
	case KeyLike:
		return len(s.Likes)
	}
	return 0
}

// AppendFields appends to dst the fields of the entities [i, j) of s's
// array of family f, in codec order.
func (s *Snapshot) AppendFields(dst []int64, f KeyKind, i, j int) []int64 {
	switch f {
	case KeyPost:
		for k := i; k < j; k++ {
			dst = s.Posts[k].appendFields(dst)
		}
	case KeyComment:
		for k := i; k < j; k++ {
			dst = s.Comments[k].appendFields(dst)
		}
	case KeyUser:
		for k := i; k < j; k++ {
			dst = s.Users[k].appendFields(dst)
		}
	case KeyFriendship:
		for k := i; k < j; k++ {
			dst = s.Friendships[k].appendFields(dst)
		}
	case KeyLike:
		for k := i; k < j; k++ {
			dst = s.Likes[k].appendFields(dst)
		}
	}
	return dst
}

// AppendEntities appends to s's array of family f the entities whose
// fields vals holds in codec order; len(vals) is a multiple of the
// family's field count.
func (s *Snapshot) AppendEntities(f KeyKind, vals []int64) {
	n := len(f.Fields())
	i := s.Len(f)
	s.setLen(f, i+len(vals)/n)
	for ; len(vals) > 0; vals = vals[n:] {
		s.setEntity(f, i, vals)
		i++
	}
}

// setEntity sets entity i of s's array of family f to the one whose
// fields vals holds in codec order.
func (s *Snapshot) setEntity(f KeyKind, i int, vals []int64) {
	switch f {
	case KeyPost:
		s.Posts[i] = postOf(vals)
	case KeyComment:
		s.Comments[i] = commentOf(vals)
	case KeyUser:
		s.Users[i] = userOf(vals)
	case KeyFriendship:
		s.Friendships[i] = friendshipOf(vals)
	case KeyLike:
		s.Likes[i] = likeOf(vals)
	}
}

// setLen sets the length of s's array of family f to n, growing it as
// Grow does; an array cut to length 0 is nil.
func (s *Snapshot) setLen(f KeyKind, n int) {
	switch f {
	case KeyPost:
		s.Posts = withLen(s.Posts, n)
	case KeyComment:
		s.Comments = withLen(s.Comments, n)
	case KeyUser:
		s.Users = withLen(s.Users, n)
	case KeyFriendship:
		s.Friendships = withLen(s.Friendships, n)
	case KeyLike:
		s.Likes = withLen(s.Likes, n)
	}
}

func withLen[E any](a []E, n int) []E {
	switch {
	case n == len(a):
		return a
	case n == 0:
		return nil
	case n > len(a):
		return slices.Grow(a, n-len(a))[:n]
	}
	return a[:n]
}

// Grow makes room in s's array of family f for n more entities, so that
// appending them does not reallocate it. A nil array stays nil for n 0.
func (s *Snapshot) Grow(f KeyKind, n int) {
	switch f {
	case KeyPost:
		s.Posts = slices.Grow(s.Posts, n)
	case KeyComment:
		s.Comments = slices.Grow(s.Comments, n)
	case KeyUser:
		s.Users = slices.Grow(s.Users, n)
	case KeyFriendship:
		s.Friendships = slices.Grow(s.Friendships, n)
	case KeyLike:
		s.Likes = slices.Grow(s.Likes, n)
	}
}
