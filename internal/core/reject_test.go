package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/shard"
)

// engines returns one of every GraphBLAS engine, each running on its own
// as in the paper's harness.
func engines() []core.Solution {
	return []core.Solution{
		core.NewQ1Batch(), core.NewQ1Incremental(),
		core.NewQ2Batch(), core.NewQ2Incremental(), core.NewQ2IncrementalIncidence(), core.NewQ2IncrementalCC(),
	}
}

// TestLoadGraphRejectsDanglingReferences: the engines resolve no id
// themselves, so a snapshot with a dangling reference is rejected where
// ids are resolved, by model.NewState, which the shard runtime's New and
// each engine's standalone Load go through. Every rejection wraps
// model.ErrIntegrity.
func TestLoadGraphRejectsDanglingReferences(t *testing.T) {
	bad := []*model.Snapshot{
		{Comments: []model.Comment{{ID: 1, PostID: 99, ParentID: 99}}},
		{
			Posts:    []model.Post{{ID: 1}},
			Comments: []model.Comment{{ID: 1, PostID: 1, ParentID: 1}},
			Likes:    []model.Like{{UserID: 42, CommentID: 1}},
		},
		{
			Users: []model.User{{ID: 1}},
			Likes: []model.Like{{UserID: 1, CommentID: 42}},
		},
		{
			Users:       []model.User{{ID: 1}},
			Friendships: []model.Friendship{{User1: 1, User2: 42}},
		},
	}
	for i, s := range bad {
		if _, err := model.NewState(s); !errors.Is(err, model.ErrIntegrity) {
			t.Errorf("snapshot %d: NewState = %v, want an integrity violation", i, err)
		}
		for _, n := range []int{1, 2} {
			rt, err := shard.New(n, s)
			if err == nil {
				rt.Close()
			}
			if !errors.Is(err, model.ErrIntegrity) {
				t.Errorf("snapshot %d: shard.New(%d) = %v, want an integrity violation", i, n, err)
			}
		}
		for _, eng := range engines() {
			if err := eng.Load(s); !errors.Is(err, model.ErrIntegrity) {
				t.Errorf("snapshot %d: %s %s Load = %v, want an integrity violation", i, eng.Name(), eng.Query(), err)
			}
		}
	}
}

// TestApplyRejectsDanglingReferences: a change with a dangling reference
// is rejected by model.State.Apply, which the shard runtime's Commit and
// each engine's standalone Update go through, with model.ErrIntegrity.
func TestApplyRejectsDanglingReferences(t *testing.T) {
	d := model.ExampleDataset()
	bad := []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 999, PostID: 888}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: model.U1, CommentID: 888}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 888, CommentID: model.C1}},
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: model.U1, User2: 888}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: 888, CommentID: model.C1}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 888, User2: model.U1}},
	}
	for i, ch := range bad {
		cs := &model.ChangeSet{Changes: []model.Change{ch}}
		st, err := model.NewState(d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply(cs.Changes); !errors.Is(err, model.ErrIntegrity) {
			t.Errorf("change %d: State.Apply = %v, want an integrity violation", i, err)
		}
		for _, n := range []int{1, 2} {
			rt, err := shard.New(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Commit(cs); !errors.Is(err, model.ErrIntegrity) {
				t.Errorf("change %d: %d-shard Commit = %v, want an integrity violation", i, n, err)
			}
			rt.Close()
		}
		for _, eng := range engines() {
			if err := eng.Load(d.Snapshot); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Initial(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Update(cs); !errors.Is(err, model.ErrIntegrity) {
				t.Errorf("change %d: %s %s Update = %v, want an integrity violation", i, eng.Name(), eng.Query(), err)
			}
		}
	}
}
