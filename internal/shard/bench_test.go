package shard

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// routerFixture is the scale-factor-32 snapshot BenchmarkNewRouter and
// TestRouterRetainedBytes build a 4-shard router of, and its entity count
// (posts, comments, users, likes and friendships).
func routerFixture() (*model.Snapshot, int) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	return snap, len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
}

// heapAfterGC is the live heap: HeapAlloc right after a collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkNewRouter builds the 4-shard router of routerFixture and reports
// the heap it retains per snapshot entity: the router's share of a server's
// memory, beside the engines and model.State. The router keeps the local
// indices it assigned: an int32 or two per post and per comment.
func BenchmarkNewRouter(b *testing.B) {
	snap, entities := routerFixture()
	st, err := model.NewState(snap)
	if err != nil {
		b.Fatal(err)
	}
	var retained int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		r, _, _ := newRouter(4, st)
		b.StopTimer()
		retained = heapAfterGC() - before
		runtime.KeepAlive(r)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(entities), "retained-B/entity")
}

// TestRouterRetainedBytes is a deterministic memory gate on the router: the
// 4-shard router of routerFixture, started the way the runtime starts it
// on a model.State it does not count, must retain at most 9.8 bytes per
// snapshot entity: Go 1.24 measures 8.5 with the local indices it assigns
// and the parked comments ranked by State index alone, with and without
// -race, and the bound adds 15%. A parked set ranked through copies of
// each comment's entry (id, score, timestamp) measured 22.4; its own
// comment id map, records and parked flags before that 37.6, and the
// union-find store with member rings before those took 87.
// The router holds no Go map, so its layout does not vary across Go
// versions.
func TestRouterRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	before := heapAfterGC()
	r, _, _ := newRouter(4, st)
	retained := heapAfterGC() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(st) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("router retains %.1f B per snapshot entity", got)
	if got > 9.8 {
		t.Fatalf("router retains %.1f B per snapshot entity, want at most 9.8", got)
	}
}

// TestRuntimeRetainedBytes is the combined memory gate: model.State plus
// a one-shard runtime started on it (the router and the q1, q2 and q2cc
// engines), as a server holds them, on routerFixture. Go 1.24 measures
// 87.5 bytes per snapshot entity, State 43.7 of them; the bound adds 15%.
// With the router's parked comments ranked through entry copies it
// measured 101.4. The same State and runtime with Go maps keyed by
// model.ID in the State and an id map in the router and in every engine
// measured 149.9–150.4, State 54.5–55.0.
func TestRuntimeRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	before := heapAfterGC()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(1, st)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	retained := heapAfterGC() - before
	runtime.KeepAlive(rt)
	runtime.KeepAlive(snap) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("State and one-shard runtime retain %.1f B per snapshot entity", got)
	if got > 100.6 {
		t.Fatalf("State and one-shard runtime retain %.1f B per snapshot entity, want at most 100.6", got)
	}
}
