package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/wal"
)

// waitReady polls until startup WAL replay has completed (or fails the
// test after a generous deadline).
func waitReady(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !srv.Ready() {
		if err := srv.brokenErr(); err != nil {
			t.Fatalf("server broke during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not become ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// crash simulates an abrupt process death, for recovery tests: the writer
// and shard runtime stop, but no final snapshot is written and the WAL is
// abandoned without a flush — the durability directory is left exactly as
// a kill -9 would leave it. (Batches already queued still drain through
// the writer, which only makes the pre-crash workload longer.)
func (s *Server) crash() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.closing = true
	s.mu.Unlock()
	s.producers.Wait()
	close(s.updates)
	<-s.writerDone
	s.rt.Close()
	s.closeDurable(false)
}

// checkAgainstOracle asserts the served snapshot is exactly the oracle's
// answer after k committed change sets.
func checkAgainstOracle(t *testing.T, label string, snap *Snapshot, k int, oracleQ1, oracleQ2 []string) {
	t.Helper()
	if snap.Seq != k {
		t.Fatalf("%s: seq %d, want %d", label, snap.Seq, k)
	}
	if got := snap.Results[EngineQ1]; got != oracleQ1[k] {
		t.Fatalf("%s: Q1 at seq %d served %q, oracle %q", label, k, got, oracleQ1[k])
	}
	if got := snap.Results[EngineQ2]; got != oracleQ2[k] {
		t.Fatalf("%s: Q2 at seq %d served %q, oracle %q", label, k, got, oracleQ2[k])
	}
	if got := snap.Results[EngineQ2CC]; got != oracleQ2[k] {
		t.Fatalf("%s: Q2-CC at seq %d served %q, oracle %q", label, k, got, oracleQ2[k])
	}
}

// TestCrashRecoveryOracle is the durability centerpiece: a persistent
// server is killed mid-workload at random points (no final snapshot, no
// WAL flush beyond what each commit's fsync already guaranteed), restarted
// from its -data-dir, and must serve top-3 answers change-for-change
// identical to both an uninterrupted incremental run and the batch-engine
// recomputation oracle — at 1 shard and at N shards, under -race in CI.
func TestCrashRecoveryOracle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testCrashRecoveryOracle(t, shards)
		})
	}
}

func testCrashRecoveryOracle(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 42})
	oracleQ1 := oracle(t, "Q1", d) // batch recomputation reference
	oracleQ2 := oracle(t, "Q2", d)
	n := len(d.ChangeSets)
	wantChanges := make([]int, n+1) // prefix sums of committed changes
	for k := 1; k <= n; k++ {
		wantChanges[k] = wantChanges[k-1] + len(d.ChangeSets[k-1].Changes)
	}

	// The uninterrupted incremental run: same engines, no persistence, no
	// crashes. (Its answers must equal the batch oracle's too — that is the
	// existing serving oracle test — so recovered == uninterrupted ==
	// batch recomputation all collapse to one comparison per seq, but we
	// record it separately to keep the acceptance criterion honest.)
	plain, err := New(Config{Dataset: d, Shards: shards, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted := []map[string]string{plain.Snapshot().Results}
	for k := range d.ChangeSets {
		if err := plain.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("uninterrupted run: change set %d: %v", k, err)
		}
		uninterrupted = append(uninterrupted, plain.Snapshot().Results)
	}
	plain.Close()

	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		Shards:        shards,
		PersistDir:    dir,
		Fsync:         wal.SyncAlways,
		SnapshotEvery: 3, // small: restarts exercise snapshot + WAL-tail replay
		FlushInterval: time.Millisecond,
	}

	rng := rand.New(rand.NewSource(int64(7 + shards)))
	k := 0
	restarts := 0
	for k < n {
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("restart %d (seq %d): %v", restarts, k, err)
		}
		waitReady(t, srv)
		if restarts > 0 && !srv.Recovered() {
			t.Fatal("restarted server did not recover from the durable snapshot")
		}
		snap := srv.Snapshot()
		checkAgainstOracle(t, fmt.Sprintf("recovered (restart %d)", restarts), snap, k, oracleQ1, oracleQ2)
		checkAudits(t, fmt.Sprintf("recovered (restart %d)", restarts), srv)
		if snap.Changes != wantChanges[k] {
			t.Fatalf("recovered at seq %d with %d changes, want %d", k, snap.Changes, wantChanges[k])
		}

		// Advance the workload by a random number of committed batches,
		// checking every one against both references, then crash (except at
		// the very end, which closes cleanly to cover that path too).
		steps := 1 + rng.Intn(4)
		for i := 0; i < steps && k < n; i++ {
			if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
				t.Fatalf("change set %d: %v", k, err)
			}
			k++
			snap := srv.Snapshot()
			checkAgainstOracle(t, "post-commit", snap, k, oracleQ1, oracleQ2)
			checkAudits(t, "post-commit", srv)
			for key, want := range uninterrupted[k] {
				if snap.Results[key] != want {
					t.Fatalf("engine %s at seq %d: %q differs from uninterrupted run's %q",
						key, k, snap.Results[key], want)
				}
			}
		}
		if k < n {
			srv.crash()
		} else {
			srv.Close()
		}
		restarts++
	}
	if restarts < 3 {
		t.Fatalf("workload finished after only %d restarts; the test should crash several times", restarts)
	}

	// One final restart from a cleanly closed directory: the final
	// snapshot makes replay empty, and the answers still match everything.
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitReady(t, srv)
	checkAgainstOracle(t, "final restart", srv.Snapshot(), n, oracleQ1, oracleQ2)
	checkAudits(t, "final restart", srv)
	for key, want := range uninterrupted[n] {
		if got := srv.Snapshot().Results[key]; got != want {
			t.Fatalf("final engine %s: %q differs from uninterrupted run's %q", key, got, want)
		}
	}
	t.Logf("shards=%d: %d change sets across %d crash/restart cycles, all answers oracle-identical", shards, n, restarts)
}

// waitSnapshot waits until the snapshot at seq (or a later one) is durable
// and its encode has finished.
func waitSnapshot(t *testing.T, srv *Server, seq int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		last := int(srv.wal.Metrics().LastSnapSeq)
		if last >= seq && !srv.snapInProgress.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot at seq %d not durable within 30s (last %d)", seq, last)
		}
		time.Sleep(time.Millisecond)
	}
}

// copyDataDir duplicates a durability directory for compacted-vs-plain
// recovery comparisons.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompactedWALRecoveryOracle is the tentpole's durability acceptance
// test: a crashed server's WAL is compacted offline by change key, and
// recovery over the compacted history must serve answers identical to
// recovery over an untouched copy — and to the batch oracle — even though
// the compacted log replays fewer changes. With periodic snapshots,
// recovery starts inside the history, and compaction must leave every
// segment a snapshot splits as written.
func TestCompactedWALRecoveryOracle(t *testing.T) {
	for _, every := range []int{-1, 8, 5} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			testCompactedWALRecoveryOracle(t, every)
		})
	}
}

func testCompactedWALRecoveryOracle(t *testing.T, snapshotEvery int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 21, RemovalFraction: 0.35})
	oracleQ1 := oracle(t, "Q1", d)
	oracleQ2 := oracle(t, "Q2", d)
	n := len(d.ChangeSets)

	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		Shards:        2,
		PersistDir:    dir,
		Fsync:         wal.SyncOff,
		SnapshotEvery: snapshotEvery, // -1: the WAL tail is the whole history
		segmentBytes:  512,           // tiny segments: most of the history seals
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range d.ChangeSets {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("change set %d: %v", k, err)
		}
	}
	// Deterministic like churn on one edge: consecutive add/remove batches
	// land in the same segments, guaranteeing supersession has work even
	// when the dataset's own removals straddle segment boundaries. The
	// churn count is even, so the final state matches the oracle at n.
	u := d.Snapshot.Users[0].ID
	c := d.Snapshot.Comments[0].ID
	const churn = 60
	for i := 0; i < churn; i++ {
		kind := model.KindAddLike
		if i%2 == 1 {
			kind = model.KindRemoveLike
		}
		ch := model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
		if err := srv.Enqueue([]model.Change{ch}, true); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	final := srv.Snapshot()
	srv.crash()

	plainDir := copyDataDir(t, dir)
	rep, err := wal.CompactDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if snapshotEvery < 0 && (rep.CompactedSegments == 0 || rep.ChangesOut >= rep.ChangesIn) {
		t.Fatalf("compaction had no effect on the history: %+v", rep)
	}

	recover := func(label, dataDir string) *Snapshot {
		c := cfg
		c.PersistDir = dataDir
		s, err := New(c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer s.Close()
		waitReady(t, s)
		if !s.Recovered() {
			t.Fatalf("%s: server did not recover from the durability directory", label)
		}
		return s.Snapshot()
	}
	compacted := recover("compacted recovery", dir)
	plain := recover("plain recovery", plainDir)

	if compacted.Seq != final.Seq || plain.Seq != final.Seq {
		t.Fatalf("recovered seqs %d (compacted) / %d (plain), want %d", compacted.Seq, plain.Seq, final.Seq)
	}
	for _, key := range []string{EngineQ1, EngineQ2, EngineQ2CC} {
		if compacted.Results[key] != plain.Results[key] {
			t.Fatalf("engine %s: compacted recovery %q differs from plain recovery %q",
				key, compacted.Results[key], plain.Results[key])
		}
		if compacted.Results[key] != final.Results[key] {
			t.Fatalf("engine %s: compacted recovery %q differs from pre-crash state %q",
				key, compacted.Results[key], final.Results[key])
		}
	}
	// The even churn nets out, so the final answers are the oracle's at n.
	if compacted.Results[EngineQ1] != oracleQ1[n] || compacted.Results[EngineQ2] != oracleQ2[n] {
		t.Fatalf("compacted recovery (q1=%q q2=%q) diverges from the batch oracle (q1=%q q2=%q)",
			compacted.Results[EngineQ1], compacted.Results[EngineQ2], oracleQ1[n], oracleQ2[n])
	}
	t.Logf("compacted %d→%d changes across %d sealed segments (%d→%d bytes); recovery oracle-identical",
		rep.ChangesIn, rep.ChangesOut, rep.SealedSegments, rep.BytesIn, rep.BytesOut)
}

// TestDurableLogBoundedBySnapshots: snapshots alone keep a long-running
// server's log bounded. A durable server at the default segment size and
// snapshot cadence takes 8,000 waited commits of 64 likes the dataset
// does not hold, added and then removed on the next commit; the log
// rotates at least twice, yet the snapshot trims leave at most two
// segments, having deleted every sealed segment but possibly the newest.
// A crash then recovers the exact pre-crash seq and answers.
func TestDurableLogBoundedBySnapshots(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 5})
	held := make(map[model.Like]bool, len(d.Snapshot.Likes))
	for _, l := range d.Snapshot.Likes {
		held[l] = true
	}
	var add, remove []model.Change
	for _, u := range d.Snapshot.Users {
		l := model.Like{UserID: u.ID, CommentID: d.Snapshot.Comments[0].ID}
		if held[l] {
			continue
		}
		add = append(add, model.Change{Kind: model.KindAddLike, Like: l})
		remove = append(remove, model.Change{Kind: model.KindRemoveLike, Like: l})
		if len(add) == 64 {
			break
		}
	}
	if len(add) < 64 {
		t.Fatalf("only %d likes the dataset does not hold", len(add))
	}

	const commits = 8000
	cfg := Config{Dataset: d, PersistDir: t.TempDir(), Fsync: wal.SyncOff}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	every := srv.cfg.SnapshotEvery
	for i := 1; i <= commits; i++ {
		set := add
		if i%2 == 0 {
			set = remove
		}
		if err := srv.Enqueue(set, true); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if i%every == 0 {
			// Let each cadence snapshot land before the next commit, so
			// none is deferred behind a slower encode.
			waitSnapshot(t, srv, i)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	final := srv.Snapshot()
	srv.crash()
	p := stats.Persistence
	if p == nil {
		t.Fatal("stats.persistence missing")
	}
	if p.Rotations < 2 || p.Segments > 2 || p.TrimmedSegs < p.Rotations-1 {
		t.Fatalf("log not bounded by snapshots: walRotations=%d walSegments=%d trimmedSegments=%d",
			p.Rotations, p.Segments, p.TrimmedSegs)
	}
	if stats.Inserts != commits/2*64 || stats.Removals != commits/2*64 || stats.Inserts+stats.Removals != stats.Changes {
		t.Fatalf("insert/removal split: inserts=%d removals=%d changes=%d", stats.Inserts, stats.Removals, stats.Changes)
	}
	t.Logf("%d commits: walBytes=%d walRotations=%d walSegments=%d trimmedSegments=%d",
		commits, p.AppendedBytes, p.Rotations, p.Segments, p.TrimmedSegs)

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitReady(t, srv2)
	got := srv2.Snapshot()
	if got.Seq != final.Seq || !reflect.DeepEqual(got.Results, final.Results) {
		t.Fatalf("recovered seq %d %v, want seq %d %v", got.Seq, got.Results, final.Seq, final.Results)
	}
}

// TestRecoveryTruncatesTornTail writes a workload, crashes, tears the last
// WAL record, and proves recovery truncates the damage while keeping every
// prior commit — then finishes the workload on the repaired log and still
// matches the oracle.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 42})
	oracleQ1 := oracle(t, "Q1", d)
	oracleQ2 := oracle(t, "Q2", d)
	n := len(d.ChangeSets)
	if n < 5 {
		t.Fatalf("dataset has only %d change sets", n)
	}

	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		PersistDir:    dir,
		Fsync:         wal.SyncAlways,
		SnapshotEvery: -1, // no periodic snapshots: recovery must replay the WAL
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const applied = 4
	for k := 0; k < applied; k++ {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("change set %d: %v", k, err)
		}
	}
	srv.crash()

	// Tear the tail: chop bytes off the newest segment so the last record's
	// frame is incomplete — the on-disk state of a crash mid-append.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery from torn tail: %v", err)
	}
	defer srv2.Close()
	waitReady(t, srv2)
	// The torn batch (seq 4) is gone; seqs 1..3 survive intact.
	checkAgainstOracle(t, "after truncation", srv2.Snapshot(), applied-1, oracleQ1, oracleQ2)
	srv2.mu.Lock()
	truncated := srv2.stats.Persist.Recovery.TruncatedBytes
	srv2.mu.Unlock()
	if truncated == 0 {
		t.Error("recovery reports no truncated bytes for a torn tail")
	}

	// The history continues from seq 3: re-commit the dropped change set
	// and the rest of the stream; the final answer matches the oracle.
	for k := applied - 1; k < n; k++ {
		if err := srv2.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatalf("change set %d after repair: %v", k, err)
		}
		checkAgainstOracle(t, "after repair", srv2.Snapshot(), k+1, oracleQ1, oracleQ2)
	}
}

// TestHealthzProbes pins the handler contract deterministically (the
// replay in TestHealthzReadinessDuringReplay can finish before the first
// probe): an unready server answers 503 "recovering" with a replay-
// progress reason on the readiness probe but 200 "live" on liveness, and
// flips to 200 "ready" once readiness is restored.
func TestHealthzProbes(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Force the not-ready state the handler serves during startup replay.
	srv.ready.Store(false)
	srv.mu.Lock()
	srv.replayDone, srv.replayTotal = 2, 9
	srv.mu.Unlock()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "recovering" {
		t.Fatalf("readiness while unready: %d %+v, want 503 recovering", resp.StatusCode, h)
	}
	if !strings.Contains(h.Reason, "2/9") {
		t.Errorf("reason %q does not carry replay progress 2/9", h.Reason)
	}

	lresp, err := http.Get(ts.URL + "/healthz?probe=live")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK || h.Status != "live" {
		t.Fatalf("liveness while unready: %d %+v, want 200 live", lresp.StatusCode, h)
	}

	srv.ready.Store(true)
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || h.Status != "ready" {
		t.Fatalf("readiness when ready: %d %+v, want 200 ready", resp2.StatusCode, h)
	}
}

// TestHealthzReadinessDuringReplay drives /healthz through a recovery: a
// crashed server with a WAL tail restarts, and the readiness probe must
// answer 503 with a JSON reason until replay completes while the liveness
// probe answers 200 throughout.
func TestHealthzReadinessDuringReplay(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 13})
	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		PersistDir:    dir,
		Fsync:         wal.SyncAlways,
		SnapshotEvery: -1,
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(d.ChangeSets) && k < 6; k++ {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	srv.crash()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	// Readiness and liveness race replay here; sample both until ready.
	sawRecovering := false
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			if h.Status != "recovering" {
				t.Fatalf("503 with status %q, want recovering", h.Status)
			}
			if !strings.Contains(h.Reason, "replay") {
				t.Fatalf("recovering reason %q does not mention replay", h.Reason)
			}
			sawRecovering = true
		case http.StatusOK:
			if h.Status != "ready" {
				t.Fatalf("200 with status %q, want ready", h.Status)
			}
		default:
			t.Fatalf("healthz status %d", resp.StatusCode)
		}

		lresp, err := http.Get(ts.URL + "/healthz?probe=live")
		if err != nil {
			t.Fatal(err)
		}
		var lh healthResponse
		if err := json.NewDecoder(lresp.Body).Decode(&lh); err != nil {
			t.Fatal(err)
		}
		lresp.Body.Close()
		if lresp.StatusCode != http.StatusOK || lh.Status != "live" {
			t.Fatalf("liveness probe: status %d body %+v, want 200 live", lresp.StatusCode, lh)
		}

		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !sawRecovering {
		t.Log("replay finished before the first probe; readiness 503 not observed (timing-dependent)")
	}
	waitReady(t, srv2)

	// /stats reflects the recovery and the readiness flag.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.Ready {
		t.Error("stats.ready is false after replay")
	}
	if stats.Persistence == nil {
		t.Fatal("stats.persistence missing for a persistent server")
	}
	if !stats.Persistence.Recovered {
		t.Error("stats.persistence.recovered is false after recovery")
	}
	if stats.Persistence.Recovery.ReplayedBatches == 0 {
		t.Error("stats.persistence.recovery.replayedBatches is 0 after a WAL-tail recovery")
	}
	if stats.Persistence.WalLastSeq == 0 {
		t.Error("stats.persistence.walLastSeq is 0")
	}
}

// TestPersistentServerWritesQueuedDuringReplay checks commit ordering
// across recovery: updates enqueued while replay is still running must
// commit after every recovered batch, and the combined history stays
// oracle-consistent.
func TestPersistentServerWritesQueuedDuringReplay(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 99})
	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		PersistDir:    dir,
		Fsync:         wal.SyncOff,
		SnapshotEvery: -1,
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pre = 5
	for k := 0; k < pre; k++ {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	srv.crash()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// Enqueue immediately — likely before replay finishes. wait=true must
	// block until the request commits on top of the full recovered history.
	if err := srv2.Enqueue(d.ChangeSets[pre].Changes, true); err != nil {
		t.Fatalf("enqueue during replay: %v", err)
	}
	if !srv2.Ready() {
		t.Error("a waited enqueue returned before replay completed")
	}
	snap := srv2.Snapshot()
	if snap.Seq != pre+1 {
		t.Fatalf("combined history seq %d, want %d", snap.Seq, pre+1)
	}
	oracleQ1 := oracle(t, "Q1", d)
	if snap.Results[EngineQ1] != oracleQ1[pre+1] {
		t.Fatalf("Q1 after queued-during-replay commit: %q, oracle %q", snap.Results[EngineQ1], oracleQ1[pre+1])
	}
}

// TestReplayAndShutdownShareTheLivePaths: WAL replay publishes through the
// live commit step, and the graceful close writes its snapshot through the
// live snapshot writer. A restart on a WAL tail of n batches must count n
// update phases with no Q2 disagreement; the shutdown snapshot must keep
// snapshotInProgress set while it streams and leave lastSnapshotSeq at the
// final seq.
func TestReplayAndShutdownShareTheLivePaths(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 21, RemovalFraction: 0.2})
	const n = 5
	if len(d.ChangeSets) <= n {
		t.Fatalf("dataset too small: %d change sets", len(d.ChangeSets))
	}
	dir := t.TempDir()
	cfg := Config{
		Dataset:       d,
		Shards:        2,
		PersistDir:    dir,
		Fsync:         wal.SyncOff,
		SnapshotEvery: -1,
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	srv.crash()

	// Chunks of the shutdown snapshot record whether snapInProgress was set.
	var (
		closing        atomic.Bool
		srv2           *Server
		shutdownChunks atomic.Int64
		unflagged      atomic.Int64
	)
	cfg.snapshotChunkBytes = 1024
	cfg.snapshotChunkHook = func(int) {
		if !closing.Load() {
			return
		}
		shutdownChunks.Add(1)
		if !srv2.snapInProgress.Load() {
			unflagged.Add(1)
		}
	}
	srv2, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	waitReady(t, srv2)

	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Persistence == nil || stats.Persistence.Recovery.ReplayedBatches != n {
		t.Fatalf("stats.persistence %+v, want %d replayed batches", stats.Persistence, n)
	}
	if stats.Updates.Count != n {
		t.Errorf("updates.count = %d after replaying %d batches, want %d", stats.Updates.Count, n, n)
	}
	if stats.Q2Disagreements != 0 {
		t.Errorf("q2Disagreements = %d after replay, want 0", stats.Q2Disagreements)
	}

	if err := srv2.Enqueue(d.ChangeSets[n].Changes, true); err != nil {
		t.Fatal(err)
	}
	srv2.waitSnapshot() // the post-replay snapshot
	closing.Store(true)
	srv2.Close()
	if shutdownChunks.Load() == 0 {
		t.Fatal("the graceful close wrote no snapshot chunk")
	}
	if u := unflagged.Load(); u != 0 {
		t.Errorf("%d of %d shutdown snapshot chunks streamed with snapshotInProgress unset", u, shutdownChunks.Load())
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if got := stats.Persistence.LastSnapSeq; got != n+1 {
		t.Errorf("lastSnapshotSeq = %d after close, want the final seq %d", got, n+1)
	}
	if stats.Persistence.SnapshotInProgress {
		t.Error("snapshotInProgress still set after close")
	}
}

// TestRecoveryCloseWritesNoSnapshot pins snapshotDurable's "already
// written" rule: a server reopened on a directory whose newest snapshot
// leaves no WAL tail has nothing new to make durable, so neither start-up
// nor the graceful close writes a snapshot file.
func TestRecoveryCloseWritesNoSnapshot(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 21})
	const n = 3
	cfg := Config{
		Dataset:       d,
		PersistDir:    t.TempDir(),
		Fsync:         wal.SyncOff,
		SnapshotEvery: -1,
		FlushInterval: time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // its final snapshot at seq n covers the whole log

	snapFiles := func() map[string]os.FileInfo {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(cfg.PersistDir, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]os.FileInfo, len(names))
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(name)] = fi
		}
		return files
	}
	before := snapFiles()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, srv2)
	if !srv2.Recovered() || srv2.Snapshot().Seq != n {
		t.Fatalf("reopened at seq %d (recovered %v), want the snapshot's seq %d", srv2.Snapshot().Seq, srv2.Recovered(), n)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if p := stats.Persistence; p == nil || p.Recovery.ReplayedBatches != 0 || p.Snapshots != 0 || p.LastSnapSeq != n {
		t.Fatalf("stats.persistence %+v, want no replayed batch, 0 snapshots and lastSnapshotSeq %d", p, n)
	}
	srv2.Close()

	after := snapFiles()
	for name, fi := range after {
		if old, ok := before[name]; !ok || !os.SameFile(old, fi) {
			t.Errorf("close wrote %s; the recovered snapshot at seq %d was already durable", name, n)
		}
	}
	if len(after) != len(before) {
		t.Errorf("%d snapshot files after close, %d before", len(after), len(before))
	}
}

// queryPaths are every query endpoint: the three served answers.
var queryPaths = []string{"/query/q1", "/query/q2", "/query/q2?engine=cc"}

// servedViews fetches every read endpoint's body: /stats, then the query
// answers.
func servedViews(t *testing.T, base string) map[string]string {
	t.Helper()
	views := make(map[string]string)
	for _, path := range append([]string{"/stats"}, queryPaths...) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		views[path] = string(body)
	}
	return views
}

// writerAwaitsWAL reports whether the writer goroutine is parked in publish
// itself on a channel receive. While the engines apply a batch it is parked
// inside shard's CommitRefs instead, so this holds only once the commit
// barrier has returned and publish waits for the commit's WAL step.
func writerAwaitsWAL() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
			strings.HasPrefix(lines[1], "repro/internal/server.(*Server).publish(") {
			return true
		}
	}
	return false
}

// TestNothingPublishedBeforeDurable holds a commit's WAL step after the
// engines have applied the batch: until the step returns, the published
// Snapshot, every /query answer and /stats must still show the previous
// commit, and the waited Enqueue must not return. Released, the commit is
// published. A writer that published, or offered the batch to the audit,
// before joining the WAL step fails here. The first audit is held
// throughout, so no audit moves /stats' figures and none is offered the
// batch; the auditor's goroutine parks in internal/shard, so the
// goroutine dump still finds the writer alone at the join.
func TestNothingPublishedBeforeDurable(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testNothingPublishedBeforeDurable(t, shards)
		})
	}
}

func testNothingPublishedBeforeDurable(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 13, RemovalFraction: 0.2})
	var hold atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	audit, audited, releaseAudit := holdAudit(0)
	srv, err := New(Config{
		Dataset:       d,
		Shards:        shards,
		PersistDir:    t.TempDir(),
		Fsync:         wal.SyncAlways,
		SnapshotEvery: -1,
		walHook: func() {
			if hold.Load() {
				entered <- struct{}{}
				<-release
			}
		},
		auditHook: audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer releaseAudit()
	<-audited
	// Released before Close on every path, so a failing check cannot leave
	// the writer parked on the held step.
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Enqueue(d.ChangeSets[0].Changes, true); err != nil {
		t.Fatal(err)
	}
	prev := srv.Snapshot()
	before := servedViews(t, ts.URL)

	hold.Store(true)
	done := make(chan error, 1)
	go func() { done <- srv.Enqueue(d.ChangeSets[1].Changes, true) }()
	<-entered
	deadline := time.Now().Add(30 * time.Second)
	for !writerAwaitsWAL() {
		if time.Now().After(deadline) {
			t.Fatal("the writer did not reach the WAL join within 30s")
		}
		time.Sleep(time.Millisecond)
	}

	if got := srv.Snapshot(); got != prev {
		t.Fatalf("seq %d published while its WAL step was held (previous seq %d)", got.Seq, prev.Seq)
	}
	for path, body := range servedViews(t, ts.URL) {
		if body != before[path] {
			t.Errorf("%s changed while the WAL step was held:\nbefore %s\nduring %s", path, before[path], body)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("waited Enqueue returned (%v) while its WAL step was held", err)
	default:
	}

	unhold()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot(); got.Seq != prev.Seq+1 || got.Changes != prev.Changes+len(d.ChangeSets[1].Changes) {
		t.Fatalf("after release: seq %d, changes %d; want %d, %d",
			got.Seq, got.Changes, prev.Seq+1, prev.Changes+len(d.ChangeSets[1].Changes))
	}
	oracleQ1 := oracle(t, "Q1", d)
	if got := srv.Snapshot().Results[EngineQ1]; got != oracleQ1[2] {
		t.Fatalf("Q1 after release %q, oracle %q", got, oracleQ1[2])
	}
	if a := srv.rt.Audited(); a.Audits != 0 {
		t.Fatalf("audited %+v while the first audit is held", *a)
	}
}

// TestWALFailureLeavesServerBroken closes the server's log under it, so the
// next commit's append fails while the engines apply the batch. The waited
// /update must get 503 (ErrBroken) and nothing may be published: seq,
// every answer and /stats (apart from its broken field) stay as they were;
// the first audit is held throughout, so no audit moves /stats' figures.
// A restart from the directory must serve exactly the durable prefix.
func TestWALFailureLeavesServerBroken(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testWALFailureLeavesServerBroken(t, shards)
		})
	}
}

func testWALFailureLeavesServerBroken(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 17, RemovalFraction: 0.2})
	oracleQ1 := oracle(t, "Q1", d)
	oracleQ2 := oracle(t, "Q2", d)
	cfg := Config{
		Dataset:       d,
		Shards:        shards,
		PersistDir:    t.TempDir(),
		Fsync:         wal.SyncAlways,
		SnapshotEvery: -1,
	}
	audit, audited, releaseAudit := holdAudit(0)
	defer releaseAudit()
	held := cfg
	held.auditHook = audit
	srv, err := New(held)
	if err != nil {
		t.Fatal(err)
	}
	<-audited
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const k = 3
	for i := 0; i < k; i++ {
		if err := srv.Enqueue(d.ChangeSets[i].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	prev := srv.Snapshot()
	before := servedViews(t, ts.URL)

	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k].Changes, true)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("waited /update on a closed log: status %d, want 503", resp.StatusCode)
	}
	if err := srv.Enqueue(d.ChangeSets[k+1].Changes, true); !errors.Is(err, ErrBroken) {
		t.Fatalf("Enqueue after the failed append: %v, want ErrBroken", err)
	}
	if got := srv.Snapshot(); got != prev {
		t.Fatalf("seq %d published after its append failed (previous seq %d)", got.Seq, prev.Seq)
	}
	after := servedViews(t, ts.URL)
	for _, path := range queryPaths {
		if after[path] != before[path] {
			t.Errorf("%s changed after the failed append:\nbefore %s\nafter  %s", path, before[path], after[path])
		}
	}
	var statsBefore, statsAfter map[string]any
	if err := json.Unmarshal([]byte(before["/stats"]), &statsBefore); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(after["/stats"]), &statsAfter); err != nil {
		t.Fatal(err)
	}
	if broken, _ := statsAfter["broken"].(string); !strings.Contains(broken, "wal append") {
		t.Errorf("/stats broken = %q, want the append failure", broken)
	}
	delete(statsAfter, "broken")
	if !reflect.DeepEqual(statsBefore, statsAfter) {
		t.Errorf("/stats changed after the failed append:\nbefore %s\nafter  %s", before["/stats"], after["/stats"])
	}
	releaseAudit()
	srv.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitReady(t, srv2)
	checkAgainstOracle(t, "restart after the failed append", srv2.Snapshot(), k, oracleQ1, oracleQ2)
	if err := srv2.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	checkAgainstOracle(t, "first commit after the restart", srv2.Snapshot(), k+1, oracleQ1, oracleQ2)
}
