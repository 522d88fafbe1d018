package shard

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/model"
)

// sf32Fixture is the scale-factor-32 snapshot the memory gates build a
// runtime of, and its entity count (posts, comments, users, likes and
// friendships).
func sf32Fixture() (*model.Snapshot, int) {
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

// TestRuntimeRetainedBytes is the combined memory gate: model.State plus
// a runtime started on it (the q1 and q2cc engines, once the first audit
// has run), as a server holds them, on sf32Fixture's snapshot (datagen
// sf 32, seed 1). Go 1.24 measures 52.4–52.7 bytes per snapshot entity at
// one shard, State 24.3 of them, with and without -race, the same with
// q2cc parking the never-liked comments as with a router in front of it
// parking them; the bound adds 15% because slices and matrices are sized by the
// runtime's growth rule and size classes, which may change between Go
// versions. With the paper's Q2 also running in the runtime, as a
// per-commit verifier of q2cc, it measured 60.2. With grb's matrices
// storing int row pointers, column indices and pending tuples as well it
// measured 67.9, with a copy of every post
// and comment record in the State beside its IDMaps 77.2 (State 33.6),
// with the State's users and edges also held as id slices 84.3 (State
// 40.7), with its edges keyed in Go maps 87.5, and with the parked
// comments ranked through entry copies 101.4. The same State and
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
// appends grow. Go 1.24 measures 59.2–59.3 B per entity (59.6 under -race;
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
// (runtime.MemStats.TotalAlloc across it) on a State of sf32Fixture's
// snapshot (datagen sf 32, seed 1), with the kernels on one thread, as
// the server runs them: Q1Batch's attach to its View and evaluation, and
// Q2Batch's. All of it is garbage once the audit returns. Go 1.24 measures
// 3.47 MiB (3.50 under -race); the bound adds 15%. Reading the View into
// refs first, before the batch engines attached straight from it, took
// 4.21 (4.24).
func TestAuditBytes(t *testing.T) {
	defer grb.SetThreads(grb.SetThreads(1))
	snap, _ := sf32Fixture()
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
	if got > 3.99 {
		t.Fatalf("one audit allocates %.2f MiB, want at most 3.99", got)
	}
}

// TestStartAllocatedBytes is start-up's gate: the bytes Start allocates
// (runtime.MemStats.TotalAlloc across it) on a State of the datagen
// sf-128, seed-1 snapshot, with the kernels on one thread, as the server
// runs them, and the first audit held until the figure is read: the
// served engines' attach to Start's View and their initial evaluation.
// Go 1.24 measures 15.84 MiB (15.93 with a shard router numbering the
// liked comments beside q2cc); the bound adds 15% to the router's figure.
// Reading the View into refs, which the router copied the Q2 part of and
// the engines loaded from, took 21.44 MiB.
func TestStartAllocatedBytes(t *testing.T) {
	defer grb.SetThreads(grb.SetThreads(1))
	st, err := model.NewState(datagen.Generate(datagen.Config{ScaleFactor: 128, Seed: 1}).Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	hook, held, release := holdAudit(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := Start(1, st, 0, hook)
	runtime.ReadMemStats(&after)
	release()
	if err != nil {
		t.Fatal(err)
	}
	<-held
	rt.Close()
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Start allocates %.2f MiB", got)
	if got > 18.32 {
		t.Fatalf("Start allocates %.2f MiB, want at most 18.32", got)
	}
}
