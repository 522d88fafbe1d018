package core

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// Removal support is the paper's future-work workload ("more realistic
// update operations, including both insertions and removals"). These tests
// pin golden values on the worked example and run the full engine×oracle
// equivalence over mixed insert/remove streams.

func TestQ1RemoveLikeGolden(t *testing.T) {
	d := model.ExampleDataset()
	unlike := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: model.U1, CommentID: model.C2}},
	}}
	for _, eng := range q1Engines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(&unlike)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		// p1 loses one like: 25 → 24.
		if res[0].ID != model.P1 || res[0].Score != 24 {
			t.Fatalf("%s: %v, want p1=24", eng.Name(), res)
		}
	}
}

func TestQ2RemoveFriendshipGolden(t *testing.T) {
	d := model.ExampleDataset()
	unfriend := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: model.U3, User2: model.U4}},
	}}
	for _, eng := range q2Engines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(&unfriend)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		// c2's {u3,u4} component splits: 1²+2² = 5 → 1+1+1 = 3, so c1 (4)
		// overtakes c2 (3) — the case the merge-top-3 shortcut cannot
		// handle and the full re-rank must.
		if res[0].ID != model.C1 || res[0].Score != 4 {
			t.Fatalf("%s: %v, want c1=4 first", eng.Name(), res)
		}
		if res[1].ID != model.C2 || res[1].Score != 3 {
			t.Fatalf("%s: %v, want c2=3 second", eng.Name(), res)
		}
	}
}

func TestQ2RemoveLikeGolden(t *testing.T) {
	d := model.ExampleDataset()
	unlike := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: model.U3, CommentID: model.C2}},
	}}
	for _, eng := range q2Engines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Update(&unlike)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		// c2's likers shrink to {u1, u4}, no friendships among them → 2.
		if res[0].ID != model.C1 || res[0].Score != 4 {
			t.Fatalf("%s: %v, want c1=4 first", eng.Name(), res)
		}
		if res[1].ID != model.C2 || res[1].Score != 2 {
			t.Fatalf("%s: %v, want c2=2 second", eng.Name(), res)
		}
	}
}

func TestRemoveThenReAdd(t *testing.T) {
	// Removing an edge and re-adding it must restore the original scores
	// in every engine (exercises zombie resurrection in grb and state
	// rebuilds elsewhere).
	d := model.ExampleDataset()
	seq := []model.ChangeSet{
		{Changes: []model.Change{
			{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: model.U3, User2: model.U4}},
			{Kind: model.KindRemoveLike, Like: model.Like{UserID: model.U2, CommentID: model.C1}},
		}},
		{Changes: []model.Change{
			{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: model.U3, User2: model.U4}},
			{Kind: model.KindAddLike, Like: model.Like{UserID: model.U2, CommentID: model.C1}},
		}},
	}
	for _, eng := range append(q1Engines(), q2Engines()...) {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		first, err := eng.Initial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Update(&seq[0]); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		restored, err := eng.Update(&seq[1])
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		assertResultsEqual(t, eng.Name(), "remove-readd", first, restored)
	}
}

func TestRemoveAndReAddInOneSet(t *testing.T) {
	// A set may remove an edge and add it back, also an edge on a comment
	// the same set adds: every engine must end with the edge, as the
	// Snapshot.Apply oracle does.
	like := func(kind model.ChangeKind, u, c model.ID) model.Change {
		return model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
	}
	friend := func(kind model.ChangeKind, a, b model.ID) model.Change {
		return model.Change{Kind: kind, Friendship: model.Friendship{User1: a, User2: b}}
	}
	const c9 = model.ID(9)
	d := model.ExampleDataset()
	d.ChangeSets = []model.ChangeSet{
		{Changes: []model.Change{
			like(model.KindRemoveLike, model.U2, model.C1),
			like(model.KindAddLike, model.U2, model.C1),
			friend(model.KindRemoveFriendship, model.U3, model.U4),
			friend(model.KindAddFriendship, model.U4, model.U3),
		}},
		{Changes: []model.Change{
			{Kind: model.KindAddComment, Comment: model.Comment{ID: c9, Timestamp: 60, ParentID: model.C3, PostID: model.P2}},
			like(model.KindAddLike, model.U1, c9),
			like(model.KindAddLike, model.U2, c9),
			like(model.KindRemoveLike, model.U1, c9),
			like(model.KindAddLike, model.U1, c9),
			friend(model.KindAddFriendship, model.U1, model.U2),
			friend(model.KindRemoveFriendship, model.U2, model.U1),
			friend(model.KindAddFriendship, model.U2, model.U1),
		}},
		{Changes: []model.Change{
			like(model.KindRemoveLike, model.U2, model.C1),
			friend(model.KindRemoveFriendship, model.U2, model.U3),
			like(model.KindAddLike, model.U2, model.C1),
			like(model.KindRemoveLike, model.U2, model.C1),
		}},
	}
	if err := model.Validate(d); err != nil {
		t.Fatal(err)
	}
	runAll(t, d, q1Engines(), true)
	runAll(t, d, q2Engines(), false)
}

// An engine's Update checks a set through its State as the served State
// does, so a set that adds an edge already present at that point of the
// set fails with model.ErrIntegrity, also after valid changes, and the
// engine sees nothing of it: the next valid set answers as on an engine
// that never saw the rejected one. Each case's set is checked on every Q1
// and Q2 engine.
type duplicateAddCase struct {
	name string
	set  []model.Change
}

const dupUser = model.ID(500)

var dupAddUser = model.Change{Kind: model.KindAddUser, User: model.User{ID: dupUser}}

func dupLike(u, c model.ID) model.Change {
	return model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: u, CommentID: c}}
}

func dupFriend(a, b model.ID) model.Change {
	return model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: a, User2: b}}
}

// TestHeldAddIsRejected: a set that adds a like the State already holds.
func TestHeldAddIsRejected(t *testing.T) {
	checkDuplicateAddRejected(t, []duplicateAddCase{
		{"like the state holds", []model.Change{dupAddUser, dupLike(dupUser, model.C3), dupLike(model.U2, model.C1)}},
	})
}

// TestRepeatedAddInOneSetIsRejected: a set that adds the same edge twice,
// in either spelling.
func TestRepeatedAddInOneSetIsRejected(t *testing.T) {
	checkDuplicateAddRejected(t, []duplicateAddCase{
		{"like repeated in the set", []model.Change{dupAddUser, dupLike(model.U1, model.C1), dupLike(model.U1, model.C1)}},
		{"friendship in both spellings", []model.Change{dupAddUser, dupFriend(model.U1, model.U2), dupFriend(model.U2, model.U1)}},
	})
}

func checkDuplicateAddRejected(t *testing.T, cases []duplicateAddCase) {
	t.Helper()
	next := model.ChangeSet{Changes: []model.Change{
		dupAddUser, dupLike(dupUser, model.C3), dupLike(model.U1, model.C1), dupFriend(model.U1, model.U2),
	}}
	d := model.ExampleDataset()
	start := func(eng Solution) {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := append(q1Engines(), q2Engines()...)
			for i, eng := range append(q1Engines(), q2Engines()...) {
				start(eng)
				if _, err := eng.Update(&model.ChangeSet{Changes: tc.set}); !errors.Is(err, model.ErrIntegrity) {
					t.Fatalf("%s: Update = %v, want an integrity violation", eng.Name(), err)
				}
				got, err := eng.Update(&next)
				if err != nil {
					t.Fatalf("%s: next set after the rejected one: %v", eng.Name(), err)
				}
				start(fresh[i])
				want, err := fresh[i].Update(&next)
				if err != nil {
					t.Fatalf("%s: %v", eng.Name(), err)
				}
				assertResultsEqual(t, eng.Name(), "after-rejected-set", want, got)
			}
		})
	}
}

func TestEnginesMatchOracleOnMixedWorkload(t *testing.T) {
	for _, seed := range []int64{1, 5, 2018} {
		d := datagen.Generate(datagen.Config{
			ScaleFactor:     1,
			Seed:            seed,
			RemovalFraction: 0.35,
			ChangeSets:      30,
		})
		if err := model.Validate(d); err != nil {
			t.Fatalf("seed %d: generated mixed workload invalid: %v", seed, err)
		}
		hasRemoval := false
		for i := range d.ChangeSets {
			if d.ChangeSets[i].HasRemovals() {
				hasRemoval = true
			}
		}
		if !hasRemoval {
			t.Fatalf("seed %d: mixed workload contains no removals", seed)
		}
		runAll(t, d, q1Engines(), true)
		runAll(t, q2Dataset(d), q2Engines(), false)
	}
}

// Cross-validation of the NMF pair on mixed workloads lives in
// internal/harness (which may import both core and nmf without a cycle):
// TestCrossValidateMixedWorkload.
