package shard

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// routerFixture is the scale-factor-32 snapshot the memory gates and
// BenchmarkNewRouter build a router or runtime of, and its entity count
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

// BenchmarkNewRouter builds the router of routerFixture and reports the
// heap it retains per snapshot entity: the router's share of a server's
// memory, beside the engines and model.State. The router keeps an int32
// per comment (its local index in the Q2 engines or −1) and one per liked
// comment (the Q2 comment space), and a 4-byte heap slot per parked
// comment.
func BenchmarkNewRouter(b *testing.B) {
	snap, entities := routerFixture()
	st, err := model.NewState(snap)
	if err != nil {
		b.Fatal(err)
	}
	refs := st.Refs()
	var retained int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		r, _ := newRouter(st, refs)
		b.StopTimer()
		retained = heapAfterGC() - before
		runtime.KeepAlive(r)
		runtime.KeepAlive(refs)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(entities), "retained-B/entity")
}

// TestRouterRetainedBytes is a deterministic memory gate on the router: the
// router of routerFixture, started the way the runtime starts it on a
// model.State and its resolved contents, neither of which it counts, must
// retain at most 7.2 bytes per snapshot entity: Go 1.24 measures
// 6.3 with the Q2 comment space and the parked comments ranked by
// State index alone, with and without -race, and the bound adds 15%. The
// 4-shard router that also assigned every post and comment an index in
// its Q1 partition measured 8.5; a parked set ranked through copies of
// each comment's entry (id, score, timestamp) 22.4; its own comment id
// map, records and parked flags before that 37.6, and the union-find
// store with member rings before those took 87. The router holds no Go
// map, so its layout does not vary across Go versions.
func TestRouterRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	refs := st.Refs()
	before := heapAfterGC()
	r, _ := newRouter(st, refs)
	retained := heapAfterGC() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(refs)
	runtime.KeepAlive(st) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("router retains %.1f B per snapshot entity", got)
	if got > 7.2 {
		t.Fatalf("router retains %.1f B per snapshot entity, want at most 7.2", got)
	}
}

// TestRuntimeRetainedBytes is the combined memory gate: model.State plus
// a runtime started on it (the router, the q1 and q2cc engines and the
// verifier's q2, once it has loaded), as a server holds them, on
// routerFixture. Go 1.24 measures 67.9 bytes per snapshot entity at one
// shard, State 24.3 of them; the bound adds 15% because slices and
// matrices are sized by the runtime's growth rule and size classes, which
// may change between Go versions. With a copy of every post and comment
// record in the State beside its IDMaps it measured 77.2 (State 33.6),
// with the State's users and edges also held as id slices 84.3 (State
// 40.7), with its edges keyed in Go maps 87.5, and with the router's
// parked comments ranked through entry copies 101.4. The same State and
// runtime with Go maps keyed by model.ID in the State and an id map in
// the router and in every engine measured 149.9–150.4, State 54.5–55.0.
// Every engine runs whole on one shard, so 2 and 4 shards must retain at
// most 0.5 B per entity more than one (a lane per shard); with Q1
// hash-partitioned over the shards, its users in every partition and its
// posts and comments indexed per partition, they measured 90.2 and 90.5.
func TestRuntimeRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	retained := func(n int) float64 {
		before := heapAfterGC()
		st, err := model.NewState(snap)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Start(n, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.Verified().At(0, true) // the verifier loads after Start returns
		got := float64(heapAfterGC()-before) / float64(entities)
		runtime.KeepAlive(rt)
		runtime.KeepAlive(snap) // or the second collection frees it
		t.Logf("State and %d-shard runtime retain %.1f B per snapshot entity", n, got)
		return got
	}
	one := retained(1)
	if one > 78.1 {
		t.Fatalf("State and one-shard runtime retain %.1f B per snapshot entity, want at most 78.1", one)
	}
	for _, n := range []int{2, 4} {
		if got := retained(n); got > one+0.5 {
			t.Errorf("State and %d-shard runtime retain %.1f B per snapshot entity, want at most %.1f (one shard's %.1f + 0.5)", n, got, one+0.5, one)
		}
	}
}
