package server

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestNewRejectsInvalidInitialState: the initial state goes through the
// same integrity rules as every update, so New refuses a dataset
// model.Validate rejects instead of serving it (engines and model would
// disagree after the first removal).
func TestNewRejectsInvalidInitialState(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*model.Snapshot)
	}{
		{"duplicate friendship", func(s *model.Snapshot) {
			s.Friendships = append(s.Friendships, model.Friendship{User1: model.U3, User2: model.U2})
		}},
		{"duplicate like", func(s *model.Snapshot) {
			s.Likes = append(s.Likes, model.Like{UserID: model.U2, CommentID: model.C1})
		}},
		{"duplicate user", func(s *model.Snapshot) {
			s.Users = append(s.Users, model.User{ID: model.U1})
		}},
		{"self friendship", func(s *model.Snapshot) {
			s.Friendships = append(s.Friendships, model.Friendship{User1: model.U1, User2: model.U1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := model.ExampleDataset()
			tc.mutate(d.Snapshot)
			if err := model.Validate(d); !errors.Is(err, model.ErrIntegrity) {
				t.Fatalf("Validate = %v, want an integrity violation", err)
			}
			srv, err := New(Config{Dataset: d})
			if err == nil {
				srv.Close()
				t.Fatal("New served an initial state that violates integrity")
			}
			if !errors.Is(err, model.ErrIntegrity) {
				t.Fatalf("New = %v, want an error wrapping model.ErrIntegrity", err)
			}
		})
	}
}

// TestSnapshotStaleness pins the staleness contract of the published
// snapshot: rejected updates leave the previous snapshot untouched (readers
// keep the last committed state), committed updates advance Seq/Changes
// monotonically with a fresh Results map, and At never moves backwards.
func TestSnapshotStaleness(t *testing.T) {
	srv, err := New(Config{
		Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 13}),
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := srv.Snapshot()
	if before.Seq != 0 || before.Changes != 0 {
		t.Fatalf("initial snapshot: seq=%d changes=%d, want 0/0", before.Seq, before.Changes)
	}
	for _, key := range []string{EngineQ1, EngineQ2, EngineQ2CC} {
		if _, ok := before.Results[key]; !ok {
			t.Errorf("initial snapshot missing %s result", key)
		}
	}

	// A rejected update must not publish anything: the exact same snapshot
	// pointer keeps serving.
	err = srv.Enqueue([]model.Change{{Kind: model.KindAddPost, Post: model.Post{ID: 1_000_001}}}, true)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("duplicate post: %v, want ErrRejected", err)
	}
	if got := srv.Snapshot(); got != before {
		t.Errorf("rejected update replaced the snapshot: seq %d → %d", before.Seq, got.Seq)
	}

	// Committed updates advance the commit coordinates monotonically.
	prev := before
	for i := 0; i < 3; i++ {
		if err := srv.Enqueue([]model.Change{
			{Kind: model.KindAddUser, User: model.User{ID: model.ID(910_000 + i)}},
		}, true); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		cur := srv.Snapshot()
		if cur.Seq != prev.Seq+1 || cur.Changes != prev.Changes+1 {
			t.Fatalf("commit %d: seq %d→%d changes %d→%d, want +1/+1",
				i, prev.Seq, cur.Seq, prev.Changes, cur.Changes)
		}
		if cur.At.Before(prev.At) {
			t.Errorf("commit %d: publication time moved backwards (%v → %v)", i, prev.At, cur.At)
		}
		prev = cur
	}
}
