package model_test

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestStateRetainedBytes is a deterministic memory gate on model.State:
// validating the datagen sf-32, seed-1 snapshot, the State may retain at
// most 38.6 bytes per snapshot entity (posts, comments, users, likes and
// friendships), its copy of the posts and comments included. Go 1.24
// measures 33.6 with nodes in IDMaps, root posts as int32 indices and
// each edge family held only as its packed index pairs under an int32
// slot table; the bound adds 15% because the slices are sized by the
// runtime's growth rule and size classes, which may change between Go
// versions. With the users and both edge families also held as id
// slices it measured 40.7, with edges keyed in Go maps 43.7, and with Go
// maps keyed by model.ID 54.5–55.0.
func TestStateRetainedBytes(t *testing.T) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	entities := len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
	before := heapAfterGC()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(st)
	runtime.KeepAlive(snap) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("State retains %.1f B per snapshot entity", got)
	if got > 38.6 {
		t.Fatalf("State retains %.1f B per snapshot entity, want at most 38.6", got)
	}
}

// heapAfterGC is the live heap: HeapAlloc right after a collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
