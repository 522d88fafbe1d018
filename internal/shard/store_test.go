package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// storeModel is the brute-force model the router store is checked against:
// every comment's record, and the comments liked in the initial snapshot or
// by any change since.
type storeModel struct {
	comments  map[model.ID]model.Comment
	everLiked map[model.ID]bool
}

func newStoreModel(snap *model.Snapshot) *storeModel {
	m := &storeModel{comments: map[model.ID]model.Comment{}, everLiked: map[model.ID]bool{}}
	for _, c := range snap.Comments {
		m.comments[c.ID] = c
	}
	for _, l := range snap.Likes {
		m.everLiked[l.CommentID] = true
	}
	return m
}

// q2 records cs in the model and returns what the Q2 engines of a
// one-shard runtime receive for it (perfbench's q2View): every change but
// AddComment, with a never-liked comment's record prepended to its first
// like or unlike.
func (m *storeModel) q2(cs []model.Change) []model.Change {
	var out []model.Change
	for _, ch := range cs {
		switch ch.Kind {
		case model.KindAddComment:
			m.comments[ch.Comment.ID] = ch.Comment
			continue
		case model.KindAddLike, model.KindRemoveLike:
			if id := ch.Like.CommentID; !m.everLiked[id] {
				m.everLiked[id] = true
				out = append(out, model.Change{Kind: model.KindAddComment, Comment: m.comments[id]})
			}
		}
		out = append(out, ch)
	}
	return out
}

// q1 is the brute-force Q1 placement of cs over n shards: posts, comments
// and likes on hashShard of their root post, users on every shard,
// friendships nowhere. Call it after q2, which records cs's comments.
func (m *storeModel) q1(cs []model.Change, n int) [][]model.Change {
	out := make([][]model.Change, n)
	for _, ch := range cs {
		var post model.ID
		switch ch.Kind {
		case model.KindAddPost:
			post = ch.Post.ID
		case model.KindAddComment:
			post = ch.Comment.PostID
		case model.KindAddLike, model.KindRemoveLike:
			post = m.comments[ch.Like.CommentID].PostID
		case model.KindAddUser:
			for s := range out {
				out[s] = append(out[s], ch)
			}
			continue
		default:
			continue
		}
		s := hashShard(post, n)
		out[s] = append(out[s], ch)
	}
	return out
}

// sameChanges compares two change lists, nil equal to empty.
func sameChanges(a, b []model.Change) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkStore asserts the router's store against the model: it holds every
// comment's record, the parked set is exactly the never-liked comments,
// and parkedComments and parkedTopK count and rank that set.
func checkStore(t testing.TB, r *router, m *storeModel) {
	t.Helper()
	if n := r.comments.Len(); n != len(m.comments) || len(r.recs) != n || len(r.parked) != n {
		t.Fatalf("router holds %d comment ids, %d records, %d parked flags; model %d comments",
			n, len(r.recs), len(r.parked), len(m.comments))
	}
	var parked core.Result
	for id, c := range m.comments {
		ci, err := r.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.comment(ci); got != c {
			t.Fatalf("comment %d: router record %+v, model %+v", id, got, c)
		}
		if r.parked[ci] == m.everLiked[id] {
			t.Fatalf("comment %d: parked %v, ever liked %v", id, r.parked[ci], m.everLiked[id])
		}
		if r.parked[ci] {
			parked = append(parked, core.Entry{ID: id, Timestamp: c.Timestamp})
		}
	}
	if r.parkedComments() != len(parked) {
		t.Fatalf("parkedComments = %d, want %d", r.parkedComments(), len(parked))
	}
	sort.Slice(parked, func(i, j int) bool { return core.Less(parked[i], parked[j]) })
	if got, want := r.parkedTopK().String(), parked[:min(core.TopK, len(parked))].String(); got != want {
		t.Fatalf("parkedTopK = %q, brute force %q", got, want)
	}
}

// checkInitial asserts the partitions a new router renders of snap: each
// Q1 partition holds its hashed posts with their comments and likes, and
// the Q2 partition is snap without its likeless comments.
func checkInitial(t testing.TB, r *router, snap *model.Snapshot) {
	t.Helper()
	m := newStoreModel(snap)
	checkStore(t, r, m)
	posts := 0
	for s := 0; s < r.n; s++ {
		q1 := r.q1Snapshot(snap, s)
		posts += len(q1.Posts)
		for _, p := range q1.Posts {
			if hashShard(p.ID, r.n) != s {
				t.Fatalf("post %d in shard %d's Q1 partition, hashShard %d", p.ID, s, hashShard(p.ID, r.n))
			}
		}
		for _, c := range q1.Comments {
			if hashShard(c.PostID, r.n) != s {
				t.Fatalf("comment %d in shard %d's Q1 partition, its root post's shard is %d", c.ID, s, hashShard(c.PostID, r.n))
			}
		}
		for _, l := range q1.Likes {
			if post := m.comments[l.CommentID].PostID; hashShard(post, r.n) != s {
				t.Fatalf("like on comment %d in shard %d's Q1 partition, off its root post's shard", l.CommentID, s)
			}
		}
		if len(q1.Users) != len(snap.Users) {
			t.Fatalf("shard %d's Q1 partition holds %d users, model %d", s, len(q1.Users), len(snap.Users))
		}
	}
	if posts != len(snap.Posts) {
		t.Fatalf("Q1 partitions hold %d posts, model %d", posts, len(snap.Posts))
	}
	want := *snap
	want.Comments = nil
	for _, c := range snap.Comments {
		if m.everLiked[c.ID] {
			want.Comments = append(want.Comments, c)
		}
	}
	got := r.q2Snapshot(snap)
	if len(got.Comments) != len(want.Comments) || len(got.Comments) > 0 && !reflect.DeepEqual(got.Comments, want.Comments) ||
		!reflect.DeepEqual(got.Posts, snap.Posts) || !reflect.DeepEqual(got.Users, snap.Users) ||
		!reflect.DeepEqual(got.Likes, snap.Likes) || !reflect.DeepEqual(got.Friendships, snap.Friendships) {
		t.Fatalf("Q2 partition %+v, want %+v", got, want)
	}
}

// routeChecked routes cs and checks the plan and the store against the
// model: every Q1 change on hashShard of its root post, and the Q2 stream
// equal to the one-shard q2View stream. It returns the plan.
func routeChecked(t testing.TB, r *router, m *storeModel, cs []model.Change) *plan {
	t.Helper()
	p, err := r.route(&model.ChangeSet{Changes: cs})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.q2(cs); !sameChanges(p.q2, want) {
		t.Fatalf("Q2 stream %+v, q2View %+v", p.q2, want)
	}
	for s, want := range m.q1(cs, r.n) {
		if !sameChanges(p.q1[s], want) {
			t.Fatalf("shard %d: Q1 stream %+v, brute force %+v", s, p.q1[s], want)
		}
	}
	checkStore(t, r, m)
	return p
}

// synthetic counts the comments a plan hands to the Q2 engines at their
// first like: the AddComments of its Q2 stream.
func synthetic(p *plan) int {
	n := 0
	for _, ch := range p.q2 {
		if ch.Kind == model.KindAddComment {
			n++
		}
	}
	return n
}

// TestRouterStoreInvariants routes a seeded datagen stream with 35%
// removals, in its own change sets, at 2 and 4 shards and checks the plan
// and the store after every commit.
func TestRouterStoreInvariants(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 11, ChangeSets: 150, RemovalFraction: 0.35})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			r, err := newRouter(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			checkInitial(t, r, d.Snapshot)
			m := newStoreModel(d.Snapshot)
			unparked := 0
			for _, cs := range d.ChangeSets {
				unparked += synthetic(routeChecked(t, r, m, cs.Changes))
			}
			if unparked == 0 {
				t.Fatal("no parked comment was liked: the stream exercised no unpark")
			}
		})
	}
}

// TestRouterStoreMatchesBruteForce routes a datagen stream with 30%
// removals, re-split at random commit boundaries so that a comment and its
// first like often share a commit, at 2 and 4 shards, and checks the plan
// and the store against the brute-force model after every commit.
func TestRouterStoreMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 5, ChangeSets: 120, RemovalFraction: 0.3})
			r, err := newRouter(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			checkInitial(t, r, d.Snapshot)
			m := newStoreModel(d.Snapshot)
			rng := rand.New(rand.NewSource(int64(n)))
			sameCommit := 0
			for _, cs := range rebatch(d, rng) {
				added := map[model.ID]bool{}
				for _, ch := range cs.Changes {
					if ch.Kind == model.KindAddComment {
						added[ch.Comment.ID] = true
					}
				}
				for _, ch := range routeChecked(t, r, m, cs.Changes).q2 {
					if ch.Kind == model.KindAddComment && added[ch.Comment.ID] {
						sameCommit++
					}
				}
			}
			t.Logf("%d comments added and first liked in one commit", sameCommit)
			if sameCommit == 0 {
				t.Fatal("no commit added a comment and its first like: the oracle exercised nothing new")
			}
		})
	}
}

// FuzzRouterStore decodes the input into a short change stream over 8
// users and 8 comments on two posts, three bytes per change: an opcode (add
// comment, add or remove like, add or remove friendship, or end of change
// set) and two operands. Changes model.State rejects are dropped. The
// first change set becomes the initial snapshot of a 2-shard router; every
// later one is routed, and the plan and the store are checked after each
// against the brute-force model.
func FuzzRouterStore(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 150)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}, {ID: 2, Timestamp: 2}}}
		for u := model.ID(1); u <= 8; u++ {
			base.Users = append(base.Users, model.User{ID: u})
		}
		st, err := model.NewState(base)
		if err != nil {
			t.Fatal(err)
		}
		var r *router
		var m *storeModel
		var pending []model.Change
		flush := func() {
			if r != nil {
				routeChecked(t, r, m, pending)
			} else {
				view, release := st.View()
				if r, err = newRouter(2, view); err != nil {
					t.Fatal(err)
				}
				checkInitial(t, r, view)
				m = newStoreModel(view)
				release()
			}
			pending = pending[:0]
		}
		for i := 0; i+2 < len(data) && i < 3*256; i += 3 {
			a, b := model.ID(data[i+1]%8), model.ID(data[i+2]%8)
			var ch model.Change
			switch data[i] % 6 {
			case 0:
				post := 1 + b%2
				ch = model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: 100 + a, Timestamp: int64(b), ParentID: post, PostID: post}}
			case 1:
				ch = model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 1 + a, CommentID: 100 + b}}
			case 2:
				ch = model.Change{Kind: model.KindRemoveLike, Like: model.Like{UserID: 1 + a, CommentID: 100 + b}}
			case 3:
				ch = model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 1 + a, User2: 1 + b}}
			case 4:
				ch = model.Change{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 1 + a, User2: 1 + b}}
			default:
				flush()
				continue
			}
			if st.Apply([]model.Change{ch}) == nil {
				pending = append(pending, ch)
			}
		}
		flush()
	})
}
