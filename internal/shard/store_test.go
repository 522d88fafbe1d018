package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// storeModel is the brute-force model q2cc's parking is checked against:
// every comment's id, and the comments liked in the initial snapshot or by
// any change since. A comment is parked exactly while it has never been
// liked.
type storeModel struct {
	comments  map[model.ID]bool
	everLiked map[model.ID]bool
}

func newStoreModel(snap *model.Snapshot) *storeModel {
	m := &storeModel{comments: map[model.ID]bool{}, everLiked: map[model.ID]bool{}}
	for _, c := range snap.Comments {
		m.comments[c.ID] = true
	}
	for _, l := range snap.Likes {
		m.everLiked[l.CommentID] = true
	}
	return m
}

// record records cs in the model and returns how many comments it likes
// (or unlikes) for the first time: the comments q2cc moves out of its
// parked set.
func (m *storeModel) record(cs []model.Change) int {
	joined := 0
	for _, ch := range cs {
		switch ch.Kind {
		case model.KindAddComment:
			m.comments[ch.Comment.ID] = true
		case model.KindAddLike, model.KindRemoveLike:
			if id := ch.Like.CommentID; !m.everLiked[id] {
				m.everLiked[id] = true
				joined++
			}
		}
	}
	return joined
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

// commentCount returns how many comments st holds, read through a view
// released at once.
func commentCount(st *model.State) int {
	view, release := st.View()
	defer release()
	return view.Len(model.KeyComment)
}

// q2ccOf returns the runtime's q2cc engine.
func q2ccOf(t testing.TB, rt *Runtime) *core.Q2IncrementalCC {
	t.Helper()
	for i := range rt.engines {
		if cc, ok := rt.engines[i].eng.(*core.Q2IncrementalCC); ok {
			return cc
		}
	}
	t.Fatal("no q2cc engine in the runtime")
	return nil
}

// checkStore asserts q2cc's comment numbering: its own invariants (of and
// local inverse maps, the parked heap exactly the comments with no local
// index; see core.Q2IncrementalCC.ParkedComments), a place for every
// comment of the State and the model, and a parked set of exactly the
// never-liked comments.
func checkStore(t testing.TB, rt *Runtime, m *storeModel) {
	t.Helper()
	parked, err := q2ccOf(t, rt).ParkedComments()
	if err != nil {
		t.Fatal(err)
	}
	nc := commentCount(rt.st)
	if n := len(parked); n != nc || n != len(m.comments) {
		t.Fatalf("q2cc places %d comments; state %d, model %d", n, nc, len(m.comments))
	}
	for ci := 0; ci < nc; ci++ {
		id, _ := rt.st.CommentIDTime(ci)
		if !m.comments[id] {
			t.Fatalf("state comment %d (id %d): not in the model", ci, id)
		}
		if parked[ci] == m.everLiked[id] {
			t.Fatalf("comment %d: parked %v, ever liked %v", id, parked[ci], m.everLiked[id])
		}
	}
}

// newCheckedRuntime starts an n-shard runtime on a State of snap, closed
// when the test ends. It checks q2cc's parking of snap's comments and
// that each served engine runs on shard slot mod n.
func newCheckedRuntime(t testing.TB, n int, snap *model.Snapshot) *Runtime {
	t.Helper()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(n, st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	checkStore(t, rt, newStoreModel(snap))
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
// changes and checks q2cc's parking against the model, and that every
// shard hosting an engine counts the commit and every other shard none.
// It returns the number of comments the commit liked for the first time.
func commitChecked(t testing.TB, rt *Runtime, m *storeModel, cs []model.Change) int {
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
	for s := range rt.lanes {
		want := 0
		if s < len(rt.engines) {
			want = 1
		}
		if got := rec.Shards[s].Commits - prev.Shards[s].Commits; got != want {
			t.Fatalf("shard %d counted %d commits, want %d", s, got, want)
		}
	}
	joined := m.record(cs)
	checkStore(t, rt, m)
	return joined
}

// TestRouterStoreInvariants commits a seeded datagen stream with 35%
// removals, in its own change sets, at 2 and 4 shards and checks q2cc's
// parking and every shard's commit count after every commit. (Its name
// is older than q2cc's parking: a router in front of the Q2 engines
// parked the comments until then.)
func TestRouterStoreInvariants(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 11, ChangeSets: 150, RemovalFraction: 0.35})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			rt := newCheckedRuntime(t, n, d.Snapshot)
			m := newStoreModel(d.Snapshot)
			unparked := 0
			for _, cs := range d.ChangeSets {
				unparked += commitChecked(t, rt, m, cs.Changes)
			}
			if unparked == 0 {
				t.Fatal("no parked comment was liked: the stream exercised no unpark")
			}
		})
	}
}

// TestRouterStoreMatchesBruteForce commits a datagen stream with 30%
// removals, re-split at random commit boundaries so that a comment and its
// first like often share a commit, at 2 and 4 shards, and checks q2cc's
// parking against the brute-force model and every shard's commit count
// after every commit.
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
					switch {
					case ch.Kind == model.KindAddComment:
						added[ch.Comment.ID] = true
					case ch.Kind == model.KindAddLike && added[ch.Like.CommentID]:
						sameCommit++
						delete(added, ch.Like.CommentID)
					}
				}
				commitChecked(t, rt, m, cs.Changes)
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
// every later one is applied to that State and committed. After each,
// q2cc's parking and every shard's commit count are checked against the
// brute-force model, and the runtime's answers against the batch engines
// loaded from a Snapshot the same changes were applied to.
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
		var oracle *model.Snapshot
		var pending []model.Change
		flush := func() {
			if rt != nil {
				commitChecked(t, rt, m, pending)
				oracle.Apply(&model.ChangeSet{Changes: pending})
			} else {
				snap := snapshotOf(st)
				rt = newCheckedRuntime(t, 2<<(len(data)%2), snap)
				m, oracle = newStoreModel(snap), snap.Clone()
			}
			checkAnswers(t, rt.Record(), oracle)
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

// checkAnswers fails unless rec's answers are the batch engines' on snap,
// each loaded from it afresh.
func checkAnswers(t testing.TB, rec *Record, snap *model.Snapshot) {
	t.Helper()
	for _, q := range []struct {
		keys []string
		eng  core.Solution
	}{
		{[]string{"q1"}, core.NewQ1Batch()},
		{[]string{"q2", "q2cc"}, core.NewQ2Batch()},
	} {
		if err := q.eng.Load(snap); err != nil {
			t.Fatal(err)
		}
		want, err := q.eng.Initial()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range q.keys {
			if got := rec.Results[key]; got != want.String() {
				t.Fatalf("commit %d: %s = %q, %s batch answers %q", rec.Commits, key, got, q.eng.Query(), want)
			}
		}
	}
}
