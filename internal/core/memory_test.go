package core

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// servedView is the snapshot a one-shard runtime hands an engine of the
// given query: Q1 gets every post, comment, like and user but no
// friendships (Q1 never reads them); Q2 gets every post, user, like and
// friendship but no likeless comment (the router parks those and ranks
// them itself).
func servedView(snap *model.Snapshot, query string) *model.Snapshot {
	if query == "Q1" {
		return &model.Snapshot{Posts: snap.Posts, Comments: snap.Comments, Users: snap.Users, Likes: snap.Likes}
	}
	liked := make(map[model.ID]bool, len(snap.Comments))
	for _, l := range snap.Likes {
		liked[l.CommentID] = true
	}
	view := &model.Snapshot{Posts: snap.Posts, Users: snap.Users, Likes: snap.Likes, Friendships: snap.Friendships}
	for _, c := range snap.Comments {
		if liked[c.ID] {
			view.Comments = append(view.Comments, c)
		}
	}
	return view
}

// heapAfterGC is the live heap: HeapAlloc right after a collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedBytes is the heap an engine keeps after Load and Initial on
// view, excluding the view itself.
func retainedBytes(t testing.TB, eng Solution, view *model.Snapshot) int64 {
	t.Helper()
	before := heapAfterGC()
	if err := eng.Load(view); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(eng)
	runtime.KeepAlive(view) // or the second collection frees it
	return retained
}

// TestEngineRetainedBytes is a deterministic memory gate on the served
// engines, the engine-side twin of the router's TestRouterRetainedBytes:
// after Load and Initial on the view a one-shard runtime serves them
// (datagen sf 32, seed 1), each engine may retain at most its bound in
// bytes per entity of the full snapshot (posts, comments, users, likes and
// friendships). With compact id maps, only the matrices each engine reads
// and q2cc's components in flat per-like labels, Go 1.24 measures q1 21.3,
// q2 15.5 and q2cc 19.1 B per entity. None of them holds a Go map, so
// each bound adds 15% for allocator differences. Go-map id tables and all
// five matrices in every engine measured 52.6, 22.7 and 43.7; q2cc with a
// DSU and a Go map per comment measured 38.6.
func TestEngineRetainedBytes(t *testing.T) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	entities := len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
	for _, e := range []struct {
		name  string
		query string
		new   func() Solution
		bound float64
	}{
		{"q1", "Q1", func() Solution { return NewQ1Incremental() }, 24.5},
		{"q2", "Q2", func() Solution { return NewQ2Incremental() }, 17.8},
		{"q2cc", "Q2", func() Solution { return NewQ2IncrementalCC() }, 22.0},
	} {
		t.Run(e.name, func(t *testing.T) {
			view := servedView(snap, e.query)
			got := float64(retainedBytes(t, e.new(), view)) / float64(entities)
			t.Logf("%s retains %.1f B per snapshot entity", e.name, got)
			if got > e.bound {
				t.Fatalf("%s retains %.1f B per snapshot entity, want at most %.1f", e.name, got, e.bound)
			}
		})
	}
}
