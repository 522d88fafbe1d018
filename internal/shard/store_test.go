package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// sameChanges compares two change lists, nil equal to empty.
func sameChanges(a, b []model.Change) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// snapshotOf reads the state through a view, family by family, as the
// snapshot encoder does; its users are in index order.
func snapshotOf(st *model.State) *model.Snapshot {
	view, release := st.View()
	defer release()
	s := &model.Snapshot{}
	for f := model.KeyKind(0); f < model.Families; f++ {
		s.AppendEntities(f, view.AppendFields(nil, f, 0, view.Len(f)))
	}
	return s
}

// render turns refs in State indices back into the changes they stand for.
func render(st *model.State, refs []model.Ref) []model.Change {
	view, release := st.View()
	users := view.AppendFields(nil, model.KeyUser, 0, view.Len(model.KeyUser)) // ids in index order
	release()
	var out []model.Change
	for _, x := range refs {
		ch := model.Change{Kind: x.Kind}
		switch x.Kind {
		case model.KindAddPost:
			ch.Post = st.Post(int(x.A))
		case model.KindAddComment:
			ch.Comment = st.Comment(int(x.A))
		case model.KindAddUser:
			ch.User = model.User{ID: users[x.A]}
		case model.KindAddFriendship, model.KindRemoveFriendship:
			ch.Friendship = model.Friendship{User1: users[x.A], User2: users[x.B]}
		case model.KindAddLike, model.KindRemoveLike:
			ch.Like = model.Like{UserID: users[x.A], CommentID: st.Comment(int(x.B)).ID}
		}
		out = append(out, ch)
	}
	return out
}

// q2Changes renders refs in the Q2 engines' indices as changes.
func (r *router) q2Changes(refs []model.Ref) []model.Change {
	state := make([]model.Ref, len(refs))
	for k, x := range refs {
		switch x.Kind {
		case model.KindAddComment:
			x.A = r.q2Comments.Of[x.A]
		case model.KindAddLike, model.KindRemoveLike:
			x.B = r.q2Comments.Of[x.B]
		}
		state[k] = x
	}
	return render(r.st, state)
}

// commentIndex returns the State index of comment id, or −1.
func commentIndex(st *model.State, id model.ID) int {
	_, nc, _ := st.Counts()
	for i := 0; i < nc; i++ {
		if st.Comment(i).ID == id {
			return i
		}
	}
	return -1
}

// checkStore asserts the router's store against the model: it places
// every comment, the parked set is exactly the never-liked comments, every
// other comment's Q2 local index leads back to it, and parkedComments and
// parkedTopK count and rank the parked set.
func checkStore(t testing.TB, r *router, m *storeModel) {
	t.Helper()
	_, nc, _ := r.st.Counts()
	if n := len(r.q2Local); n != nc || n != len(m.comments) {
		t.Fatalf("router places %d comments; state %d, model %d", n, nc, len(m.comments))
	}
	var parked core.Result
	for ci := 0; ci < nc; ci++ {
		id := r.st.Comment(ci).ID
		c, ok := m.comments[id]
		if !ok {
			t.Fatalf("state comment %d (id %d): not in the model", ci, id)
		}
		isParked := r.q2Local[ci] < 0
		if isParked == m.everLiked[id] {
			t.Fatalf("comment %d: parked %v, ever liked %v", id, isParked, m.everLiked[id])
		}
		if isParked {
			parked = append(parked, core.Entry{ID: id, Timestamp: c.Timestamp})
		} else if got := r.q2Comments.Of[r.q2Local[ci]]; int(got) != ci {
			t.Fatalf("comment %d: Q2 local index %d leads to state comment %d, not %d", id, r.q2Local[ci], got, ci)
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

// checkInitial asserts the Q2 engines' refs a new router renders of its
// state (snap): snap without its likeless comments.
func checkInitial(t testing.TB, r *router, snap *model.Snapshot, q2 []model.Ref) {
	t.Helper()
	m := newStoreModel(snap)
	checkStore(t, r, m)
	var got model.Snapshot
	for _, ch := range r.q2Changes(q2) {
		switch ch.Kind {
		case model.KindAddPost:
			got.Posts = append(got.Posts, ch.Post)
		case model.KindAddComment:
			got.Comments = append(got.Comments, ch.Comment)
		case model.KindAddUser:
			got.Users = append(got.Users, ch.User)
		case model.KindAddFriendship:
			got.Friendships = append(got.Friendships, ch.Friendship)
		case model.KindAddLike:
			got.Likes = append(got.Likes, ch.Like)
		}
	}
	var liked []model.Comment
	for _, c := range snap.Comments {
		if m.everLiked[c.ID] {
			liked = append(liked, c)
		}
	}
	// The State stores friendships with ordered endpoints.
	ordered := func(fs []model.Friendship) []model.Friendship {
		out := make([]model.Friendship, len(fs))
		for k, f := range fs {
			out[k] = model.Friendship{User1: min(f.User1, f.User2), User2: max(f.User1, f.User2)}
		}
		return out
	}
	if !slices.Equal(got.Comments, liked) || !slices.Equal(got.Posts, snap.Posts) || !slices.Equal(got.Users, snap.Users) ||
		!slices.Equal(got.Likes, snap.Likes) || !slices.Equal(ordered(got.Friendships), ordered(snap.Friendships)) {
		t.Fatalf("Q2 engines' refs %+v, want %+v with comments %+v", got, snap, liked)
	}
}

// newCheckedRuntime starts an n-shard runtime on a State of snap, closed
// when the test ends. It checks the Q2 refs a router of that State renders
// (the runtime builds its own router the same way) and that each served
// engine runs on shard slot mod n.
func newCheckedRuntime(t testing.TB, n int, snap *model.Snapshot) *Runtime {
	t.Helper()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	r, q2 := newRouter(st, stateRefs(st))
	checkInitial(t, r, snap, q2)
	rt, err := Start(n, st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if len(rt.lanes) != n {
		t.Fatalf("%d shards, want %d", len(rt.lanes), n)
	}
	for slot, e := range rt.engines {
		if e.shard != slot%n {
			t.Fatalf("engine %s on shard %d, want %d of %d", e.Key, e.shard, slot%n, n)
		}
	}
	return rt
}

// commitChecked applies cs to the runtime's State, commits the resolved
// changes and checks each shard's streams and the router's store against
// the model: a Q1-family engine gets exactly the State's resolved changes,
// a Q2-family engine the one-shard q2View stream, and a shard counts a
// commit exactly when an engine it hosts had work, so a shard hosting
// none counts none. It returns the Q2 stream.
func commitChecked(t testing.TB, rt *Runtime, m *storeModel, cs []model.Change) []model.Change {
	t.Helper()
	refs, err := rt.st.Apply(cs)
	if err != nil {
		t.Fatal(err)
	}
	prev := rt.Record()
	rec, err := rt.CommitRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.router
	q2 := r.q2Changes(r.q2)
	if want := m.q2(cs); !sameChanges(q2, want) {
		t.Fatalf("Q2 stream %+v, q2View %+v", q2, want)
	}
	for s := range rt.lanes {
		work := 0
		for i := range rt.engines {
			e := &rt.engines[i]
			if e.shard != s {
				continue
			}
			stream := e.stream(refs, r.q2)
			got, want := render(rt.st, stream), cs
			if e.Query == "Q2" {
				got, want = r.q2Changes(stream), q2
			}
			if !sameChanges(got, want) {
				t.Fatalf("shard %d: %s stream %+v, want %+v", s, e.Key, got, want)
			}
			work += len(stream)
		}
		want := 0
		if work > 0 {
			want = 1
		}
		if got := rec.Shards[s].Commits - prev.Shards[s].Commits; got != want {
			t.Fatalf("shard %d counted %d commits for %d refs of work", s, got, work)
		}
	}
	checkStore(t, r, m)
	return q2
}

// synthetic counts the comments a Q2 stream hands to the engines at their
// first like: its AddComments.
func synthetic(q2 []model.Change) int {
	n := 0
	for _, ch := range q2 {
		if ch.Kind == model.KindAddComment {
			n++
		}
	}
	return n
}

// TestRouterStoreInvariants commits a seeded datagen stream with 35%
// removals, in its own change sets, at 2 and 4 shards and checks every
// shard's streams and the store after every commit.
func TestRouterStoreInvariants(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 11, ChangeSets: 150, RemovalFraction: 0.35})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			rt := newCheckedRuntime(t, n, d.Snapshot)
			m := newStoreModel(d.Snapshot)
			unparked := 0
			for _, cs := range d.ChangeSets {
				unparked += synthetic(commitChecked(t, rt, m, cs.Changes))
			}
			if unparked == 0 {
				t.Fatal("no parked comment was liked: the stream exercised no unpark")
			}
		})
	}
}

// TestRouterStoreMatchesBruteForce commits a datagen stream with 30%
// removals, re-split at random commit boundaries so that a comment and its
// first like often share a commit, at 2 and 4 shards, and checks every
// shard's streams and the store against the brute-force model after every
// commit.
func TestRouterStoreMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 5, ChangeSets: 120, RemovalFraction: 0.3})
			rt := newCheckedRuntime(t, n, d.Snapshot)
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
				for _, ch := range commitChecked(t, rt, m, cs.Changes) {
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
// first change set becomes the initial snapshot of a runtime, on a State
// of its own, over 2 shards for an input of even length and 4 for odd;
// every later one is applied to that State and committed, and every
// shard's streams and the store are checked after each against the
// brute-force model.
func FuzzRouterStore(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 150+i%2)
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
		var rt *Runtime
		var m *storeModel
		var pending []model.Change
		flush := func() {
			if rt != nil {
				commitChecked(t, rt, m, pending)
			} else {
				snap := snapshotOf(st)
				rt = newCheckedRuntime(t, 2<<(len(data)%2), snap)
				m = newStoreModel(snap)
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
			if _, err := st.Apply([]model.Change{ch}); err == nil {
				pending = append(pending, ch)
			}
		}
		flush()
	})
}
