package shard

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/model"
)

// routerFixture is the scale-factor-32 snapshot the memory gates and
// BenchmarkNewRouter build a router or runtime of, and its entity count
// (posts, comments, users, likes and friendships).
func routerFixture() (*model.Snapshot, int) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	return snap, len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
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
	refs := stateRefs(st)
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
	refs := stateRefs(st)
	before := heapAfterGC()
	r, _ := newRouter(st, refs)
	retained := heapAfterGC() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(refs)
	runtime.KeepAlive(st) // or the closing heapAfterGC frees it
	got := float64(retained) / float64(entities)
	t.Logf("router retains %.1f B per snapshot entity", got)
	if got > 7.2 {
		t.Fatalf("router retains %.1f B per snapshot entity, want at most 7.2", got)
	}
}

// TestRuntimeRetainedBytes is the combined memory gate: model.State plus
// a runtime started on it (the router and the q1 and q2cc engines, once
// the first audit has run), as a server holds them, on routerFixture's
// snapshot (datagen sf 32, seed 1). Go 1.24 measures 52.4–52.6 bytes per
// snapshot entity at one shard, State 24.3 of them, with and without
// -race; the bound adds 15% because slices and matrices are sized by the
// runtime's growth rule and size classes, which may change between Go
// versions. With the paper's Q2 also running in the runtime, as a
// per-commit verifier of q2cc, it measured 60.2. With grb's matrices
// storing int row pointers, column indices and pending tuples as well it
// measured 67.9, with a copy of every post
// and comment record in the State beside its IDMaps 77.2 (State 33.6),
// with the State's users and edges also held as id slices 84.3 (State
// 40.7), with its edges keyed in Go maps 87.5, and with the router's
// parked comments ranked through entry copies 101.4. The same State and
// runtime with Go maps keyed by model.ID in the State and an id map in
// the router and in every engine measured 149.9–150.4, State 54.5–55.0.
// Every engine runs whole on one shard, so 2 and 4 shards must retain at
// most 0.5 B per entity more than one (a lane per shard); with Q1
// hash-partitioned over the shards, its users in every partition and its
// posts and comments indexed per partition, they measured 90.2 and 90.5.
//
// The "after 900 change sets" row then commits the insert-only stream
// perfbench's serve-sf32 replays (datagen sf 32, seed 1, 900 sets) one set
// at a time through State.Apply and CommitRefs and divides by the
// entities the State then holds: it sees what the start row misses, the
// matrices' pending tuples and regrown row pointers and the arrays that
// appends grow. Go 1.24 measures 59.3 B per entity (59.6 under -race;
// 73.6 with the per-commit verifier, 83.0 with int matrices); the bound
// adds 15%.
func TestRuntimeRetainedBytes(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1, ChangeSets: 900})
	// retained reports the heap a State and an n-shard runtime retain
	// after committing the first sets change sets, per entity of the
	// State.
	retained := func(n, sets int) float64 {
		before := heapAfterGC()
		st, err := model.NewState(d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Start(n, st, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		waitAudits(t, rt, 1) // the first audit runs after Start returns
		for i := range d.ChangeSets[:sets] {
			refs, err := st.Apply(d.ChangeSets[i].Changes)
			if err != nil {
				t.Fatalf("change set %d: %v", i, err)
			}
			if _, err := rt.CommitRefs(refs); err != nil {
				t.Fatalf("change set %d: %v", i, err)
			}
		}
		view, release := st.View()
		entities := 0
		for f := model.KeyKind(0); f < model.Families; f++ {
			entities += view.Len(f)
		}
		release()
		got := float64(heapAfterGC()-before) / float64(entities)
		runtime.KeepAlive(rt)
		runtime.KeepAlive(d) // or the closing heapAfterGC frees it
		t.Logf("State and %d-shard runtime retain %.1f B per entity after %d change sets", n, got, sets)
		return got
	}
	one := retained(1, 0)
	if one > 60.5 {
		t.Fatalf("State and one-shard runtime retain %.1f B per snapshot entity, want at most 60.5", one)
	}
	for _, n := range []int{2, 4} {
		if got := retained(n, 0); got > one+0.5 {
			t.Errorf("State and %d-shard runtime retain %.1f B per snapshot entity, want at most %.1f (one shard's %.1f + 0.5)", n, got, one+0.5, one)
		}
	}
	if got := retained(1, len(d.ChangeSets)); got > 68.5 {
		t.Errorf("State and one-shard runtime retain %.1f B per entity after %d change sets, want at most 68.5", got, len(d.ChangeSets))
	}
}

// waitAudits waits until the auditor has run n audits.
func waitAudits(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for a := rt.Audited(); a.Audits < n; a = rt.Audited() {
		if a.Err != nil {
			t.Fatal(a.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d audits within 30s, want %d", a.Audits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAuditBytes is the audit's gate: the bytes one audit allocates
// (runtime.MemStats.TotalAlloc across it) on a State of routerFixture's
// snapshot (datagen sf 32, seed 1), with the kernels on one thread, as
// the server runs them: the refs it reads its View into, Q1Batch's load
// and evaluation, and Q2Batch's. All of it is garbage once the audit
// returns. Go 1.24 measures 4.21 MiB (4.24 under -race); the bound adds
// 15%.
func TestAuditBytes(t *testing.T) {
	defer grb.SetThreads(grb.SetThreads(1))
	snap, _ := routerFixture()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(1, st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitAudits(t, rt, 1)
	view, release := st.View()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := rt.aud.audit(offer{view: view, release: release, rec: rt.Record()})
	runtime.ReadMemStats(&after)
	if a.Err != nil || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("audit: %+v", *a)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("one audit allocates %.2f MiB", got)
	if got > 4.88 {
		t.Fatalf("one audit allocates %.2f MiB, want at most 4.88", got)
	}
}
