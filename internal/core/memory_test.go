package core

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

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

// retainedBytes is the heap an engine keeps after Attach and Initial on
// st, excluding the State.
func retainedBytes(t testing.TB, eng Engine, st *model.State) int64 {
	t.Helper()
	before := heapAfterGC()
	attach(t, eng, st)
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(eng) // or the closing heapAfterGC frees it
	return retained
}

// TestEngineRetainedBytes is a deterministic memory gate on the engines
// a server runs or times: after Attach and Initial on a State of datagen
// sf 32, seed 1, each engine may retain at most its bound in bytes per
// entity of the full snapshot (posts, comments, users, likes and
// friendships). On changes a model.State resolved, with only the matrices
// each engine reads, those in 32-bit row pointers, column indices and
// pending tuples, and q2cc's components in flat per-like labels, Go 1.24
// measures q1 6.5, q2 30.5 and q2cc 21.6 B per entity, with and without
// -race. None of them holds a Go map, so each bound is the larger figure
// plus 15%, but q2cc's is the sum of its and the shard router's earlier
// bounds (17.1 + 7.2): q2cc now parks the never-liked comments (90% of
// them at sf 32) itself, which the router held before, where it measured
// 15.3 and the router 6.3. The q2 row measures the paper's Q2 on the whole
// graph; until q2cc parked them, it measured the part the router fed the
// Q2 engines, with no never-liked comment, at 7.8. With int row pointers,
// column indices and pending tuples in grb the matrix engines measured q1
// 10.1 and q2 11.9 on that part (9.5 and 11.3 read after a single
// collection). Engines with id maps of their own measured q1 21.3, q2 15.5
// and q2cc 19.1; Go-map id tables and all five matrices in every engine
// 52.6, 22.7 and 43.7; q2cc with a DSU and a Go map per comment 38.6.
func TestEngineRetainedBytes(t *testing.T) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	entities := len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name  string
		new   func() Engine
		bound float64
	}{
		{"q1", func() Engine { return NewQ1Incremental() }, 7.5},
		{"q2", func() Engine { return NewQ2Incremental() }, 35.1},
		{"q2cc", func() Engine { return NewQ2IncrementalCC() }, 24.3},
	} {
		t.Run(e.name, func(t *testing.T) {
			got := float64(retainedBytes(t, e.new(), st)) / float64(entities)
			t.Logf("%s retains %.1f B per snapshot entity", e.name, got)
			if got > e.bound {
				t.Fatalf("%s retains %.1f B per snapshot entity, want at most %.1f", e.name, got, e.bound)
			}
		})
	}
}
