package server

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/wal"
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

// invalidInitialStates turns every class model.State rejects (the rejected
// cases of model's TestStateApply) into an initial snapshot: a small valid
// base plus one offending entity. The removal and unknown-kind classes have
// no initial-snapshot form.
func invalidInitialStates() map[string]*model.Snapshot {
	base := func() *model.Snapshot {
		return &model.Snapshot{
			Posts:       []model.Post{{ID: 1, Timestamp: 1}, {ID: 2, Timestamp: 2}},
			Comments:    []model.Comment{{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1}},
			Users:       []model.User{{ID: 100}, {ID: 101}},
			Friendships: []model.Friendship{{User1: 101, User2: 100}},
			Likes:       []model.Like{{UserID: 100, CommentID: 10}},
		}
	}
	out := map[string]*model.Snapshot{}
	with := func(name string, mutate func(s *model.Snapshot)) {
		s := base()
		mutate(s)
		out[name] = s
	}
	comment := func(c model.Comment) func(*model.Snapshot) {
		return func(s *model.Snapshot) { s.Comments = append(s.Comments, c) }
	}
	friendship := func(f model.Friendship) func(*model.Snapshot) {
		return func(s *model.Snapshot) { s.Friendships = append(s.Friendships, f) }
	}
	like := func(l model.Like) func(*model.Snapshot) {
		return func(s *model.Snapshot) { s.Likes = append(s.Likes, l) }
	}
	with("dup post", func(s *model.Snapshot) { s.Posts = append(s.Posts, model.Post{ID: 1}) })
	with("dup comment", comment(model.Comment{ID: 10, ParentID: 1, PostID: 1}))
	with("comment missing root post", comment(model.Comment{ID: 11, ParentID: 1, PostID: 99}))
	with("comment parent unknown", comment(model.Comment{ID: 11, ParentID: 999, PostID: 1}))
	with("comment root differs from parent", comment(model.Comment{ID: 11, ParentID: 10, PostID: 2}))
	with("comment replies to another post", comment(model.Comment{ID: 11, ParentID: 2, PostID: 1}))
	with("dup user", func(s *model.Snapshot) { s.Users = append(s.Users, model.User{ID: 100}) })
	with("self friendship", friendship(model.Friendship{User1: 100, User2: 100}))
	with("friendship unknown user", friendship(model.Friendship{User1: 100, User2: 999}))
	with("dup friendship reversed", friendship(model.Friendship{User1: 100, User2: 101}))
	with("dup like", like(model.Like{UserID: 100, CommentID: 10}))
	with("like unknown user", like(model.Like{UserID: 999, CommentID: 10}))
	with("like unknown comment", like(model.Like{UserID: 100, CommentID: 999}))
	return out
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to want, and reports the count it saw last.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestNewRejectsEveryIntegrityClass: validation runs alongside the engine
// start-up, so the engines load snapshots it rejects. Whatever an engine
// makes of one, New must return the validation error
// (wrapping model.ErrIntegrity), never panic, and leave no goroutine
// behind: no auditor, no start-up worker. It checks the dataset path,
// the dataset path with a fresh durability directory, and recovery from a
// durable snapshot that holds the invalid state.
func TestNewRejectsEveryIntegrityClass(t *testing.T) {
	paths := map[string]func(t *testing.T, s *model.Snapshot) Config{
		"dataset": func(t *testing.T, s *model.Snapshot) Config {
			return Config{Dataset: &model.Dataset{Snapshot: s}}
		},
		"dataset with persistence": func(t *testing.T, s *model.Snapshot) Config {
			return Config{Dataset: &model.Dataset{Snapshot: s}, PersistDir: t.TempDir()}
		},
		"recovery": func(t *testing.T, s *model.Snapshot) Config {
			dir := t.TempDir()
			l, _, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.WriteSnapshotStream(0, 0, s, nil); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return Config{PersistDir: dir, Dataset: model.ExampleDataset()}
		},
	}
	for class, snap := range invalidInitialStates() {
		for path, config := range paths {
			t.Run(class+"/"+path, func(t *testing.T) {
				cfg := config(t, snap)
				for _, shards := range []int{1, 3} {
					cfg.Shards = shards
					before := runtime.NumGoroutine()
					srv, err := New(cfg)
					if err == nil {
						srv.Close()
						t.Fatalf("%d shards: New served an initial state that violates integrity", shards)
					}
					if !errors.Is(err, model.ErrIntegrity) {
						t.Fatalf("%d shards: New = %v, want an error wrapping model.ErrIntegrity", shards, err)
					}
					if n := waitGoroutines(before); n > before {
						t.Fatalf("%d shards: %d goroutines after the rejected New, %d before", shards, n, before)
					}
				}
			})
		}
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
