package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/wal"
)

// TestCommitsDuringSnapshotEncode is the backpressure proof of the
// streaming snapshot design: a snapshot encode is held open (every chunk
// blocks on a gate), and the writer must keep committing the entire
// remaining workload — including removal batches, which take the
// copy-on-write path — with wait=1 acks, at 1 and 3 shards, under -race in
// CI. Under the old blocking encode this test would deadlock: the writer
// would sit inside the encode waiting for a gate only the test releases
// after the commits. Afterwards the gate opens, the snapshot completes,
// and a restart from the directory must recover answers identical to the
// live server's — retention is not traded for the stall fix.
func TestCommitsDuringSnapshotEncode(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testCommitsDuringSnapshotEncode(t, shards)
		})
	}
}

func testCommitsDuringSnapshotEncode(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 77, RemovalFraction: 0.35})
	n := len(d.ChangeSets)
	const snapEvery = 3
	if n < snapEvery+2 {
		t.Fatalf("dataset too small: %d change sets", n)
	}
	removalsAfterTrigger := false
	for k := snapEvery; k < n; k++ {
		if d.ChangeSets[k].HasRemovals() {
			removalsAfterTrigger = true
			break
		}
	}

	gate := make(chan struct{})
	var gateOnce sync.Once
	released := func() bool {
		select {
		case <-gate:
			return true
		default:
			return false
		}
	}
	dir := t.TempDir()
	cfg := Config{
		Dataset:            d,
		Shards:             shards,
		PersistDir:         dir,
		Fsync:              wal.SyncOff,
		SnapshotEvery:      snapEvery,
		FlushInterval:      time.Millisecond,
		snapshotChunkBytes: 1024, // many chunks, so the gate holds the encode open
		snapshotChunkHook: func(int) {
			if !released() {
				<-gate
			}
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Commit the whole workload. From seq snapEvery on, a snapshot encode
	// is gated open in the background; every wait=1 ack returning proves
	// the writer never entered the encode.
	for k := range d.ChangeSets {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("change set %d with snapshot in flight: %v", k, err)
		}
	}
	if !srv.snapInProgress.Load() {
		t.Fatal("no snapshot encode in flight after the snapshot cadence point")
	}
	if depth := srv.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth %d after all acks (writer stalled?)", depth)
	}

	// The healthz satellite: a ready server with an encode in flight must
	// say so, so orchestrators can tell "ready and idle" from "ready but
	// snapshotting" (and, symmetrically, a final-snapshot drain at
	// shutdown is visible too).
	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz during encode: status %d", code)
	}
	if !health.SnapshotInProgress {
		t.Fatal("healthz does not report the in-flight snapshot encode")
	}
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Persistence == nil || !stats.Persistence.SnapshotInProgress {
		t.Fatal("/stats does not report the in-flight snapshot encode")
	}

	// Release the gate, let the encode finish, and check the bookkeeping.
	gateOnce.Do(func() { close(gate) })
	srv.waitSnapshot()
	srv.mu.Lock()
	p := srv.stats.Persist
	streams, cowClones, snapErrs, maxStall := p.StreamedSnapshots, p.CowClones, p.SnapshotErrors, p.MaxSnapshotStallNs
	srv.mu.Unlock()
	if streams == 0 {
		t.Fatal("no streamed snapshot completed")
	}
	if snapErrs != 0 {
		t.Fatalf("%d snapshot errors", snapErrs)
	}
	if removalsAfterTrigger && cowClones == 0 {
		t.Fatal("removal batches committed during the encode without a copy-on-write clone")
	}
	if maxStall <= 0 {
		t.Fatal("no writer stall was recorded (handoff should register)")
	}
	liveResults := srv.Snapshot().Results
	liveSeq := srv.Snapshot().Seq
	srv.Close() // graceful: drains, writes the final snapshot

	// Restart: recovery from the streamed snapshots + WAL tail must serve
	// byte-identical answers.
	srv2, err := New(Config{Dataset: d, Shards: shards, PersistDir: dir, Fsync: wal.SyncOff, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitReady(t, srv2)
	if !srv2.Recovered() {
		t.Fatal("restart did not recover from the durable snapshot")
	}
	snap := srv2.Snapshot()
	if snap.Seq != liveSeq {
		t.Fatalf("recovered seq %d, live was %d", snap.Seq, liveSeq)
	}
	for engine, want := range liveResults {
		if got := snap.Results[engine]; got != want {
			t.Fatalf("recovered %s = %q, live served %q", engine, got, want)
		}
	}
}

// TestSnapshotEveryDefersBehindEncode makes -snapshot-every N a bound: a
// cadence point that finds an encode still running leaves one pending
// request instead of being skipped, and the first commit after that
// encode lands starts it at its own seq. An encode held open through
// snapshotChunkHook spans two cadence points; they share one pending
// request, and the commit after the release — not a cadence point —
// snapshots. A crash then replays nothing. Replay is thus bounded by N
// plus the batches committed during one encode.
func TestSnapshotEveryDefersBehindEncode(t *testing.T) {
	const every = 3
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 77, ChangeSets: 4 * every})
	gate := make(chan struct{})
	dir := t.TempDir()
	cfg := Config{
		Dataset:            d,
		PersistDir:         dir,
		Fsync:              wal.SyncOff,
		SnapshotEvery:      every,
		FlushInterval:      time.Millisecond,
		snapshotChunkBytes: 1024,
		snapshotChunkHook:  func(int) { <-gate }, // the seed snapshot runs without the hook
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(k int) {
		t.Helper()
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("change set %d: %v", k, err)
		}
	}
	persist := func() (persistCounters, int) { return persistOf(srv) }
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Seq every starts the held encode; seqs 2·every and 3·every find it
	// still running.
	held := 3*every + 1
	for k := 0; k < held; k++ {
		commit(k)
	}
	if !srv.snapInProgress.Load() {
		t.Fatal("no encode in flight after the first cadence point")
	}
	if p, last := persist(); p.SkippedSnapshots != 1 || p.StreamedSnapshots != 0 || last != 0 {
		t.Fatalf("during the held encode: %d deferrals (want 1: two cadence points, one request), %d streamed, last snapshot seq %d",
			p.SkippedSnapshots, p.StreamedSnapshots, last)
	}

	close(gate)
	await("the held encode to land", func() bool { _, last := persist(); return last == every })
	await("the encode to clear its in-progress flag", func() bool { return !srv.snapInProgress.Load() })
	commit(held) // seq held+1, no cadence point: starts the pending request
	await("the pending snapshot", func() bool { _, last := persist(); return last == held+1 && !srv.snapInProgress.Load() })
	if p, _ := persist(); p.StreamedSnapshots != 2 || p.SnapshotErrors != 0 {
		t.Fatalf("%d snapshots streamed, %d errors; want 2 and 0", p.StreamedSnapshots, p.SnapshotErrors)
	}
	live := srv.Snapshot()
	srv.crash()

	srv2, err := New(Config{Dataset: d, PersistDir: dir, Fsync: wal.SyncOff, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitReady(t, srv2)
	if p, _ := persistOf(srv2); p.Recovery.ReplayedBatches != 0 {
		t.Fatalf("restart replayed %d batches; the pending snapshot covered them all", p.Recovery.ReplayedBatches)
	}
	got := srv2.Snapshot()
	if got.Seq != live.Seq {
		t.Fatalf("recovered seq %d, live was %d", got.Seq, live.Seq)
	}
	for engine, want := range live.Results {
		if got.Results[engine] != want {
			t.Fatalf("recovered %s = %q, live served %q", engine, got.Results[engine], want)
		}
	}
}

// persistOf reads a server's durability counters and the seq of its last
// durable snapshot.
func persistOf(srv *Server) (persistCounters, int) {
	last := int(srv.wal.Metrics().LastSnapSeq)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.stats.Persist, last
}

// TestQueryBodyEpochCache pins the read-path epoch cache: between commits
// every read of an engine serves the same cached bytes (zero re-encodes);
// a commit publishes a new snapshot, which is the invalidation.
func TestQueryBodyEpochCache(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 8})
	srv, err := New(Config{Dataset: d, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	snap := srv.Snapshot()
	if snap.respCache[0].Load() != nil {
		t.Fatal("cache slot filled before any read")
	}
	b1 := snap.queryBody(0, "Q1", EngineQ1)
	b2 := snap.queryBody(0, "Q1", EngineQ1)
	if &b1[0] != &b2[0] {
		t.Fatal("second read re-encoded instead of serving the cached bytes")
	}
	var resp queryResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatalf("cached body is not valid JSON: %v", err)
	}
	if resp.Seq != snap.Seq || resp.Result != snap.Results[EngineQ1] {
		t.Fatalf("cached body %+v disagrees with snapshot seq %d", resp, snap.Seq)
	}
	// Distinct engines use distinct slots.
	if bytes.Equal(snap.queryBody(1, "Q2", EngineQ2CC), b1) && snap.Results[EngineQ2CC] != snap.Results[EngineQ1] {
		t.Fatal("engines share a cache slot")
	}

	// A commit publishes a fresh snapshot — the epoch bump — whose first
	// read re-encodes with the new seq.
	if err := srv.Enqueue(d.ChangeSets[0].Changes, true); err != nil {
		t.Fatal(err)
	}
	snapAfter := srv.Snapshot()
	if snapAfter == snap {
		t.Fatal("commit did not publish a new snapshot")
	}
	var after queryResponse
	if err := json.Unmarshal(snapAfter.queryBody(0, "Q1", EngineQ1), &after); err != nil {
		t.Fatal(err)
	}
	if after.Seq != snap.Seq+1 {
		t.Fatalf("post-commit read served seq %d, want %d", after.Seq, snap.Seq+1)
	}
	// The old snapshot's cache still answers its own epoch.
	var old queryResponse
	if err := json.Unmarshal(snap.queryBody(0, "Q1", EngineQ1), &old); err != nil {
		t.Fatal(err)
	}
	if old.Seq != snap.Seq {
		t.Fatalf("old snapshot's cache mutated: seq %d, want %d", old.Seq, snap.Seq)
	}
}
