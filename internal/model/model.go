// Package model defines the data model of the TTC 2018 "Social Media" case:
// Users and their Submissions (a Post is the root of a tree of Comments),
// likes edges from Users to Comments, and undirected friends edges between
// Users (Hinkel, "The TTC 2018 Social Media case"; schema derived from the
// LDBC Social Network Benchmark). It also defines the change sets applied
// during the benchmark's update phases, dense id↔index mapping, CSV
// serialization, and the validated model State that enforces referential
// integrity.
//
// The model is the neutral interchange format: both the GraphBLAS solution
// and the NMF-style reference solution load the same Snapshot and ChangeSet
// values.
package model

// ID is an external entity identifier as found in the dataset files. Posts,
// comments and users draw from independent id spaces.
type ID = int64

// Post is a root submission.
type Post struct {
	ID        ID
	Timestamp int64 // creation time; newer posts win score ties
}

// Comment is a non-root submission. ParentID points to the submission it
// replies to (a post or another comment); PostID is the direct pointer to
// the root post the case model mandates for quick lookups.
type Comment struct {
	ID        ID
	Timestamp int64
	ParentID  ID
	PostID    ID
}

// User participates by submitting, liking and befriending.
type User struct {
	ID ID
}

// Friendship is an undirected friends edge between two users.
type Friendship struct {
	User1, User2 ID
}

// Like is a likes edge from a user to a comment.
type Like struct {
	UserID    ID
	CommentID ID
}

// key is the friendship's canonical key: endpoints ordered, so both
// spellings of the undirected edge collide.
func (f Friendship) key() [2]ID {
	if f.User2 < f.User1 {
		return [2]ID{f.User2, f.User1}
	}
	return [2]ID{f.User1, f.User2}
}

func (l Like) key() [2]ID { return [2]ID{l.UserID, l.CommentID} }

// Snapshot is the initial state of the social network.
type Snapshot struct {
	Posts       []Post
	Comments    []Comment
	Users       []User
	Friendships []Friendship
	Likes       []Like
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		Posts:       append([]Post(nil), s.Posts...),
		Comments:    append([]Comment(nil), s.Comments...),
		Users:       append([]User(nil), s.Users...),
		Friendships: append([]Friendship(nil), s.Friendships...),
		Likes:       append([]Like(nil), s.Likes...),
	}
	return c
}

// NodeCount reports the number of model elements that are nodes.
func (s *Snapshot) NodeCount() int {
	return len(s.Posts) + len(s.Comments) + len(s.Users)
}

// EdgeCount reports the number of model references counted as edges: each
// comment contributes its commented edge and its rootPost pointer, plus the
// friendships and likes.
func (s *Snapshot) EdgeCount() int {
	return 2*len(s.Comments) + len(s.Friendships) + len(s.Likes)
}

// Change is one model modification. Exactly one field group is used,
// selected by Kind. The 2018 live contest is insert-only; the removal kinds
// implement the paper's future-work scenario of "more realistic update
// operations, including both insertions and removals" (edge removals:
// unliking and unfriending).
type Change struct {
	Kind ChangeKind

	Post       Post       // KindAddPost
	Comment    Comment    // KindAddComment
	User       User       // KindAddUser
	Friendship Friendship // KindAddFriendship, KindRemoveFriendship
	Like       Like       // KindAddLike, KindRemoveLike
}

// ChangeKind discriminates Change values.
type ChangeKind uint8

// The change kinds: the case study's insertions plus the future-work edge
// removals.
const (
	KindAddPost ChangeKind = iota
	KindAddComment
	KindAddUser
	KindAddFriendship
	KindAddLike
	KindRemoveFriendship
	KindRemoveLike
)

// HasRemovals reports whether the change set contains any removal.
func (cs *ChangeSet) HasRemovals() bool {
	for i := range cs.Changes {
		if cs.Changes[i].Kind.IsRemoval() {
			return true
		}
	}
	return false
}

// ChangeSet is one benchmark update step: a batch of insertions applied
// atomically before reevaluating the queries.
type ChangeSet struct {
	Changes []Change
}

// Size reports the number of changes in the set — insertions and removals
// alike (see InsertCount and RemovalCount for the split).
func (cs *ChangeSet) Size() int { return len(cs.Changes) }

// InsertCount reports the number of insertions in the set.
func (cs *ChangeSet) InsertCount() int { return len(cs.Changes) - cs.RemovalCount() }

// RemovalCount reports the number of removals in the set.
func (cs *ChangeSet) RemovalCount() int {
	n := 0
	for i := range cs.Changes {
		if cs.Changes[i].Kind.IsRemoval() {
			n++
		}
	}
	return n
}

// Dataset bundles an initial snapshot with its update sequence.
type Dataset struct {
	Snapshot   *Snapshot
	ChangeSets []ChangeSet
}

// TotalInserts reports the number of inserted elements across all change
// sets (the "#inserts" column of Table II); removals do not count.
func (d *Dataset) TotalInserts() int {
	total := 0
	for i := range d.ChangeSets {
		total += d.ChangeSets[i].InsertCount()
	}
	return total
}

// Apply applies a change set to the snapshot in place: insertions append,
// removals delete their edge, and the surviving edges keep their order. It
// is the reference semantics of an update step: engines maintain their own
// incremental state and the serving writer materializes through State, but
// tests and the benchmark's reference answers are checked against an
// applied snapshot. Apply does not check integrity (see State).
//
// Removals resolve through a keyed index over the edge slices (built only
// when the set contains removals), so Apply is linear in snapshot+changes
// even on removal-heavy histories — the naive per-removal slice scan is
// quadratic.
func (s *Snapshot) Apply(cs *ChangeSet) {
	// Index edge instances by canonical key — but only for the keys this
	// set actually removes, so the maps stay O(|changes|) even when the
	// snapshot holds millions of edges (the slice scans below are already
	// paid by the final compaction pass). Values are slice positions (a
	// stack per key, so duplicate instances remove LIFO); removal marks the
	// position dead and a final pass compacts each touched slice once. A
	// set that removes nothing leaves the maps nil: no key is tracked, the
	// loop below only appends, and Apply is O(|changes|).
	var friendIdx, likeIdx map[[2]ID][]int
	var deadFriends, deadLikes map[int]struct{}
	if cs.HasRemovals() {
		friendIdx, likeIdx = make(map[[2]ID][]int), make(map[[2]ID][]int)
		deadFriends, deadLikes = make(map[int]struct{}), make(map[int]struct{})
		for _, ch := range cs.Changes {
			switch ch.Kind {
			case KindRemoveFriendship:
				friendIdx[ch.Friendship.key()] = nil
			case KindRemoveLike:
				likeIdx[ch.Like.key()] = nil
			}
		}
		for i, f := range s.Friendships {
			if stack, tracked := friendIdx[f.key()]; tracked {
				friendIdx[f.key()] = append(stack, i)
			}
		}
		for i, l := range s.Likes {
			if stack, tracked := likeIdx[l.key()]; tracked {
				likeIdx[l.key()] = append(stack, i)
			}
		}
	}

	for _, ch := range cs.Changes {
		switch ch.Kind {
		case KindAddPost:
			s.Posts = append(s.Posts, ch.Post)
		case KindAddComment:
			s.Comments = append(s.Comments, ch.Comment)
		case KindAddUser:
			s.Users = append(s.Users, ch.User)
		case KindAddFriendship:
			// Index the new instance only when some removal in this set
			// targets its key (untracked keys cannot be removed here).
			if stack, tracked := friendIdx[ch.Friendship.key()]; tracked {
				friendIdx[ch.Friendship.key()] = append(stack, len(s.Friendships))
			}
			s.Friendships = append(s.Friendships, ch.Friendship)
		case KindAddLike:
			if stack, tracked := likeIdx[ch.Like.key()]; tracked {
				likeIdx[ch.Like.key()] = append(stack, len(s.Likes))
			}
			s.Likes = append(s.Likes, ch.Like)
		case KindRemoveFriendship:
			k := ch.Friendship.key()
			if stack := friendIdx[k]; len(stack) > 0 {
				deadFriends[stack[len(stack)-1]] = struct{}{}
				friendIdx[k] = stack[:len(stack)-1]
			}
		case KindRemoveLike:
			k := ch.Like.key()
			if stack := likeIdx[k]; len(stack) > 0 {
				deadLikes[stack[len(stack)-1]] = struct{}{}
				likeIdx[k] = stack[:len(stack)-1]
			}
		}
	}

	if len(deadFriends) > 0 {
		kept := s.Friendships[:0]
		for i, f := range s.Friendships {
			if _, dead := deadFriends[i]; !dead {
				kept = append(kept, f)
			}
		}
		s.Friendships = kept
	}
	if len(deadLikes) > 0 {
		kept := s.Likes[:0]
		for i, l := range s.Likes {
			if _, dead := deadLikes[i]; !dead {
				kept = append(kept, l)
			}
		}
		s.Likes = kept
	}
}
