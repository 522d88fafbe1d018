package model_test

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestStateRetainedBytes is a deterministic memory gate on model.State,
// per entity (post, comment, user, like and friendship) it holds: at most
// 27.9 bytes after validating the datagen sf-32, seed-1 snapshot, and at
// most 29.8 after then applying its first 900 change sets, which gates
// the growth slack of the arrays that appends grow. Go 1.24 measures
// 24.3 and 25.9, whichever tests ran before, with nodes in IDMaps, the only copy of their ids, each
// post's timestamp and each comment's 16-byte record (timestamp, parent
// and root post as int32 indices) beside them, and each edge family held
// only as its packed index pairs under an int32 slot table; the bounds
// add 15% because the slices are sized by the runtime's growth rule and
// size classes, which may change between Go versions. With a copy of
// every post and comment record beside the IDMaps (32 bytes a comment,
// plus its root post's index) it measured 33.6 and 36.6, with the users
// and both edge families also held as id slices 40.7, with edges keyed in
// Go maps 43.7, and with Go maps keyed by model.ID 54.5–55.0.
func TestStateRetainedBytes(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1, ChangeSets: 900})
	for _, row := range []struct {
		name       string
		changeSets int
		bound      float64
	}{
		{"initial", 0, 27.9},
		{"after-900-sets", 900, 29.8},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := heapAfterGC()
			st, err := model.NewState(d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			for i := range d.ChangeSets[:row.changeSets] {
				if _, err := st.Apply(d.ChangeSets[i].Changes); err != nil {
					t.Fatalf("change set %d: %v", i, err)
				}
			}
			retained := heapAfterGC() - before
			runtime.KeepAlive(st)
			runtime.KeepAlive(d) // or the closing heapAfterGC frees it
			view, release := st.View()
			entities := 0
			for f := model.KeyKind(0); f < model.Families; f++ {
				entities += view.Len(f)
			}
			release()
			got := float64(retained) / float64(entities)
			t.Logf("State retains %.1f B per entity (%d entities)", got, entities)
			if got > row.bound {
				t.Fatalf("State retains %.1f B per entity, want at most %.1f", got, row.bound)
			}
		})
	}
}

// heapAfterGC is the live heap: HeapAlloc right after two collections.
// One is not enough: some garbage outlives the collection that finds it (a
// sync.Pool's contents move to its victim cache, an object with a
// finalizer waits for the finalizer to run) and is freed by the next one,
// so after a single collection the figure would count what the tests run
// before left behind and depend on test order.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
