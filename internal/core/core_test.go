package core

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// attach attaches eng to st from a View of st released once Attach
// returns.
func attach(tb testing.TB, eng Engine, st *model.State) {
	tb.Helper()
	view, release := st.View()
	defer release()
	if err := eng.Attach(st, view); err != nil {
		tb.Fatal(err)
	}
}

func TestLessOrdering(t *testing.T) {
	cases := []struct {
		name string
		a, b Entry
		want bool
	}{
		{"higher score first", Entry{ID: 1, Score: 10}, Entry{ID: 2, Score: 5}, true},
		{"lower score later", Entry{ID: 1, Score: 5}, Entry{ID: 2, Score: 10}, false},
		{"newer wins ties", Entry{ID: 1, Score: 5, Timestamp: 9}, Entry{ID: 2, Score: 5, Timestamp: 3}, true},
		{"older loses ties", Entry{ID: 1, Score: 5, Timestamp: 3}, Entry{ID: 2, Score: 5, Timestamp: 9}, false},
		{"id breaks full ties", Entry{ID: 1, Score: 5, Timestamp: 3}, Entry{ID: 2, Score: 5, Timestamp: 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Less(tc.a, tc.b); got != tc.want {
				t.Fatalf("Less(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestRankerKeepsBestK(t *testing.T) {
	r := NewTopK(3)
	for _, e := range []Entry{
		{ID: 1, Score: 5}, {ID: 2, Score: 9}, {ID: 3, Score: 1},
		{ID: 4, Score: 7}, {ID: 5, Score: 9, Timestamp: 1},
	} {
		r.Consider(e)
	}
	got := r.Result()
	// 5 (score 9, newer), 2 (score 9), 4 (score 7).
	want := []model.ID{5, 2, 4}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("rank %d = %+v, want id %d (full %v)", i, got[i], id, got)
		}
	}
}

func TestRankerFewerThanK(t *testing.T) {
	r := NewTopK(3)
	r.Consider(Entry{ID: 1, Score: 2})
	r.Consider(Entry{ID: 2, Score: 5})
	got := r.Result()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestRankerDuplicateScoresStable(t *testing.T) {
	r := NewTopK(2)
	for id := model.ID(1); id <= 5; id++ {
		r.Consider(Entry{ID: id, Score: 1})
	}
	got := r.Result()
	// All tie on score and timestamp → ascending id.
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestResultString(t *testing.T) {
	r := Result{{ID: 7}, {ID: 8}, {ID: 9}}
	if r.String() != "7|8|9" {
		t.Fatalf("String = %q", r.String())
	}
	if len(Result{}.String()) != 0 {
		t.Fatal("empty result must render empty")
	}
}

func TestEnginesOnEmptySnapshot(t *testing.T) {
	empty := &model.Snapshot{}
	for _, eng := range append(q1Engines(), q2Engines()...) {
		if err := eng.Load(empty); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		res, err := eng.Initial()
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if len(res) != 0 {
			t.Fatalf("%s: result on empty graph = %v", eng.Name(), res)
		}
	}
}

func TestEnginesWithEmptyChangeSet(t *testing.T) {
	d := model.ExampleDataset()
	for _, eng := range append(q1Engines(), q2Engines()...) {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		first, err := eng.Initial()
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(&model.ChangeSet{})
		if err != nil {
			t.Fatalf("%s: empty update failed: %v", eng.Name(), err)
		}
		assertResultsEqual(t, eng.Name(), "empty-update", first, res)
	}
}

// TestQ1FriendshipOnlyUpdateKeepsTheAnswer: Q1 reads no friendship, so a
// change set of friendships alone must return the answer as it was and
// skip Alg. 2: at most two allocations (the delta and its friendship
// list).
func TestQ1FriendshipOnlyUpdateKeepsTheAnswer(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 8, Seed: 1})
	st, err := model.NewState(d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewQ1Incremental()
	attach(t, eng, st)
	first, err := eng.Initial()
	if err != nil {
		t.Fatal(err)
	}
	// The first pair of users the State takes as new friends.
	var refs []model.Ref
	for _, u := range d.Snapshot.Users[1:] {
		f := model.Friendship{User1: d.Snapshot.Users[0].ID, User2: u.ID}
		if r, err := st.Apply([]model.Change{{Kind: model.KindAddFriendship, Friendship: f}}); err == nil {
			refs = slices.Clone(r)
			break
		}
	}
	if refs == nil {
		t.Fatal("no new friendship to add")
	}
	res, err := eng.UpdateRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, eng.Name(), "friendship-only update", first, res)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.UpdateRefs(refs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("friendship-only UpdateRefs: %.0f allocations, want at most 2", allocs)
	}
}

func TestEnginesNewPostOnlyChangeSet(t *testing.T) {
	// A change set adding only a post: Q1 must rank the new zero-score post
	// among candidates (it can enter the top-3 by recency on tie).
	d := model.ExampleDataset()
	cs := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddPost, Post: model.Post{ID: 555, Timestamp: 99}},
	}}
	for _, eng := range q1Engines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(&cs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 || res[2].ID != 555 || res[2].Score != 0 {
			t.Fatalf("%s: %v, want new post 555 ranked third with score 0", eng.Name(), res)
		}
	}
}

func TestQ2NewUserThenLikeAcrossChangeSets(t *testing.T) {
	// A user added in one change set likes a comment in the next.
	d := model.ExampleDataset()
	cs1 := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 500}},
	}}
	cs2 := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddLike, Like: model.Like{UserID: 500, CommentID: model.C3}},
	}}
	for _, eng := range q2Engines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Update(&cs1); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		res, err := eng.Update(&cs2)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		// c3 now has one liker → score 1; ranking: c2=5, c1=4, c3=1.
		if res[2].ID != model.C3 || res[2].Score != 1 {
			t.Fatalf("%s: %v, want c3 third with score 1", eng.Name(), res)
		}
	}
}
