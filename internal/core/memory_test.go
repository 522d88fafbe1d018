package core

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// servedPart is the part of st a one-shard runtime hands an engine of the
// given query: Q1 holds every node and edge (it keeps no friendship
// matrix); Q2 holds every post, user, like and friendship but no likeless
// comment (the router parks those and ranks them itself), so its comments
// are numbered as the router numbers them.
func servedPart(st *model.State, query string) Part {
	if query == "Q1" {
		return Part{Nodes: st}
	}
	view, release := st.View()
	defer release()
	return Part{Nodes: st, Comments: LikedSpace(view)}
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

// retainedBytes is the heap an engine keeps after Attach and Initial on
// p, a part of st, excluding the State and the part's spaces.
func retainedBytes(t testing.TB, eng Engine, p Part, st *model.State) int64 {
	t.Helper()
	before := heapAfterGC()
	attach(t, eng, p, st)
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(eng)
	runtime.KeepAlive(p) // or the closing heapAfterGC frees it
	return retained
}

// TestEngineRetainedBytes is a deterministic memory gate on the served
// engines, the engine-side twin of the router's TestRouterRetainedBytes:
// after Load and Initial on the view a one-shard runtime serves them
// (datagen sf 32, seed 1), each engine may retain at most its bound in
// bytes per entity of the full snapshot (posts, comments, users, likes and
// friendships). On changes a model.State resolved, with only the matrices
// each engine reads, those in 32-bit row pointers, column indices and
// pending tuples, and q2cc's components in flat per-like labels, Go 1.24
// measures q1 6.5, q2 7.8 and q2cc 15.3 B per entity, with and without
// -race. None of them holds a Go map, so each bound is the larger figure
// plus 15% for allocator differences (q2cc's, which holds no matrix, is
// its earlier 14.9 plus 15%). With int row pointers, column indices and
// pending tuples in grb the matrix engines measured q1 10.1 and q2 11.9
// (9.5 and 11.3 read after a single collection). Engines with id maps of
// their own measured q1 21.3, q2 15.5 and q2cc 19.1; Go-map id tables and
// all five matrices in every engine 52.6, 22.7 and 43.7; q2cc with a DSU
// and a Go map per comment 38.6.
func TestEngineRetainedBytes(t *testing.T) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	entities := len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name  string
		query string
		new   func() Engine
		bound float64
	}{
		{"q1", "Q1", func() Engine { return NewQ1Incremental() }, 7.5},
		{"q2", "Q2", func() Engine { return NewQ2Incremental() }, 9.0},
		{"q2cc", "Q2", func() Engine { return NewQ2IncrementalCC() }, 17.1},
	} {
		t.Run(e.name, func(t *testing.T) {
			p := servedPart(st, e.query)
			got := float64(retainedBytes(t, e.new(), p, st)) / float64(entities)
			t.Logf("%s retains %.1f B per snapshot entity", e.name, got)
			if got > e.bound {
				t.Fatalf("%s retains %.1f B per snapshot entity, want at most %.1f", e.name, got, e.bound)
			}
		})
	}
}
