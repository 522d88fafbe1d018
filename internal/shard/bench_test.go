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
// memory, beside the engines and model.State. Only comments cost the router
// anything (an id slot, a record and a parked flag each).
func BenchmarkNewRouter(b *testing.B) {
	snap, entities := routerFixture()
	var retained int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		r, err := newRouter(4, snap)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained = heapAfterGC() - before
		runtime.KeepAlive(r)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(entities), "retained-B/entity")
}

// TestRouterRetainedBytes is a deterministic memory gate on the router: the
// 4-shard router of routerFixture must retain at most 50 bytes per
// snapshot entity. The per-comment store (a model.IDMap, records and parked
// flags) measures 37.6 on Go 1.24; the union-find store with member rings
// it replaced took 87. The store holds no Go map, so its layout does not
// vary across Go versions.
func TestRouterRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	before := heapAfterGC()
	r, err := newRouter(4, snap)
	if err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(snap) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("router retains %.1f B per snapshot entity", got)
	if got > 50 {
		t.Fatalf("router retains %.1f B per snapshot entity, want at most 50", got)
	}
}
