package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/wal"
)

// verifiedStats is the part of /stats the verifier tests read.
type verifiedStats struct {
	Seq             int    `json:"seq"`
	Q2VerifiedSeq   int    `json:"q2VerifiedSeq"`
	Q2Disagreements int    `json:"q2Disagreements"`
	Broken          string `json:"broken"`
}

// checkVerified asserts that the paper's Q2, as the verifier checked the
// commit srv last published, equals the oracle at seq k.
func checkVerified(t *testing.T, label string, srv *Server, k int, oracleQ2 []string) {
	t.Helper()
	v := srv.rt.Verified()
	snap := srv.Snapshot()
	v = v.At(snap.Commits, true)
	if seq := srv.baseSeq + v.Commits; seq != k || v.Err != nil {
		t.Fatalf("%s: verifier at seq %d (err %v), want %d", label, seq, v.Err, k)
	}
	if v.Result != oracleQ2[k] || v.Disagreements != 0 {
		t.Fatalf("%s: paper's Q2 at seq %d verified %q (%d disagreements), oracle %q",
			label, k, v.Result, v.Disagreements, oracleQ2[k])
	}
}

// TestVerifierOverHTTP: at 1 and 4 shards, after every waited update,
// /query/q2?engine=incremental serves the oracle's answer at the seq it is
// labelled with, and /stats waits until the verifier covers its seq, with
// no disagreement; the incremental answer then is the oracle's at that
// seq, as /query/q2 and ?engine=cc are.
func TestVerifierOverHTTP(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 23, RemovalFraction: 0.3})
	oracleQ2 := oracle(t, "Q2", d)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := New(Config{Dataset: d, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for k := 0; k <= len(d.ChangeSets); k++ {
				if k > 0 {
					if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k-1].Changes, true); resp.StatusCode != http.StatusOK {
						t.Fatalf("update %d: status %d", k, resp.StatusCode)
					}
				}
				var q queryResponse
				getJSON(t, ts.URL+"/query/q2?engine=incremental", &q)
				if q.Seq > k || q.Engine != EngineQ2 || q.Result != oracleQ2[q.Seq] {
					t.Fatalf("seq %d: incremental answer %+v, oracle at its seq %q", k, q, oracleQ2[min(q.Seq, k)])
				}
				var st verifiedStats
				getJSON(t, ts.URL+"/stats", &st)
				if st.Seq != k || st.Q2VerifiedSeq != k || st.Q2Disagreements != 0 {
					t.Fatalf("seq %d: /stats %+v", k, st)
				}
				for _, path := range queryPaths[1:] {
					getJSON(t, ts.URL+path, &q)
					if q.Seq != k || q.Result != oracleQ2[k] {
						t.Fatalf("seq %d: %s answered %+v, oracle %q", k, path, q, oracleQ2[k])
					}
				}
			}
		})
	}
}

// TestVerifierFailureLeavesServerBroken fails the verifier's check of the
// second commit: both commits are acknowledged (the check runs after
// publication), then the server turns broken — /update answers 503 —
// while every read keeps serving: the served answers at seq 2, the paper's
// Q2 at seq 1, and /stats without waiting.
func TestVerifierFailureLeavesServerBroken(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 29})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	boom := errors.New("injected verifier failure")
	srv, err := New(Config{Dataset: d, Shards: 2, verifyHook: func(commits int) error {
		if commits == 2 {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for k := 0; k < 2; k++ {
		if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k].Changes, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", k+1, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.brokenErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the failed check did not break the server within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.brokenErr(); !errors.Is(err, boom) {
		t.Fatalf("broken: %v, want the verifier's error", err)
	}
	if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[2].Changes, true); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/update after the failed check: status %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "broken" {
		t.Fatalf("/healthz after the failed check: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[2], "/query/q2": oracleQ2[2], "/query/q2?engine=cc": oracleQ2[2]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != 2 || q.Result != want {
			t.Fatalf("%s after the failed check: %d %+v, oracle %q", path, code, q, want)
		}
	}
	if code := getJSON(t, ts.URL+"/query/q2?engine=incremental", &q); code != http.StatusOK || q.Seq != 1 || q.Result != oracleQ2[1] {
		t.Fatalf("incremental after the failed check: %d %+v, oracle at seq 1 %q", code, q, oracleQ2[1])
	}
	var st verifiedStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.Seq != 2 || st.Q2VerifiedSeq != 1 ||
		!strings.Contains(st.Broken, boom.Error()) {
		t.Fatalf("/stats after the failed check: %d %+v", code, st)
	}
}

// TestReplayChecksEveryBatchWithTheVerifier: WAL replay hands every
// recovered batch to the verifier and waits for it before the server is
// ready; a failed check leaves the restarted server broken and not ready,
// and a clean restart then recovers both Q2 engines to the oracle.
func TestReplayChecksEveryBatchWithTheVerifier(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 43, RemovalFraction: 0.2})
	oracleQ2 := oracle(t, "Q2", d)
	const n = 5
	cfg := Config{Dataset: d, PersistDir: t.TempDir(), Fsync: wal.SyncOff, SnapshotEvery: -1}
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

	failing := cfg
	failing.verifyHook = func(commits int) error {
		if commits == 3 {
			return errors.New("injected replay check failure")
		}
		return nil
	}
	broken, err := New(failing)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for broken.brokenErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the failed replay check did not break the server within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	if broken.Ready() {
		t.Fatal("server ready after a failed replay check")
	}
	broken.crash()

	srv, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitReady(t, srv)
	if srv.Snapshot().Seq != n || srv.rt.Verified().Commits != n {
		t.Fatalf("ready at seq %d with the verifier at commit %d of %d replayed", srv.Snapshot().Seq, srv.rt.Verified().Commits, n)
	}
	checkVerified(t, "after replay", srv, n, oracleQ2)
}

// holdVerifierLoad returns a verifier hook that holds the verifier's load
// until release is called, a channel closed once the load is held, and
// release, which may be called more than once.
func holdVerifierLoad() (hook func(commits int) error, held chan struct{}, release func()) {
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(commits int) error {
		if commits == 0 {
			close(held)
			<-gate
		}
		return nil
	}, held, func() { once.Do(func() { close(gate) }) }
}

// serveAsync serves a GET of path through h on another goroutine; the
// channel yields the response once the handler returns.
func serveAsync(h http.Handler, path string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		out <- rec
	}()
	return out
}

// queueStats is the part of /stats that reports the verifier's queue.
type queueStats struct {
	verifiedStats
	VerifyQueue   int     `json:"verifyQueue"`
	VerifyBlocked float64 `json:"verifyBlockedMs"`
}

// TestStartupServesBeforeTheVerifierLoads holds the paper's Q2 in its
// load: New has returned and the server is ready, the served engines
// answer at seq 0, and ?engine=incremental and /stats wait; waited updates
// then commit, queued behind the load. Released, ?engine=incremental
// answers seq 0 and /stats the last seq, both with no disagreement, and
// /stats shows the commit that queued behind the load.
func TestStartupServesBeforeTheVerifierLoads(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 61, RemovalFraction: 0.2})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	hook, held, release := holdVerifierLoad()
	srv, err := New(Config{Dataset: d, Shards: 2, verifyHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	<-held

	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ready" {
		t.Fatalf("/healthz while the verifier loads: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[0], "/query/q2": oracleQ2[0], "/query/q2?engine=cc": oracleQ2[0]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != 0 || q.Result != want {
			t.Fatalf("%s while the verifier loads: %d %+v, oracle %q", path, code, q, want)
		}
	}
	incremental := serveAsync(srv.Handler(), "/query/q2?engine=incremental")
	stats := serveAsync(srv.Handler(), "/stats")
	select {
	case <-incremental:
		t.Fatal("?engine=incremental answered while the verifier loads")
	case <-stats:
		t.Fatal("/stats answered while the verifier loads")
	case <-time.After(50 * time.Millisecond):
	}
	const commits = 2
	for k := 0; k < commits; k++ {
		if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k].Changes, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d while the verifier loads: status %d", k+1, resp.StatusCode)
		}
	}

	release()
	rec := <-incremental
	if err := json.NewDecoder(rec.Body).Decode(&q); err != nil || rec.Code != http.StatusOK || q.Seq != 0 || q.Result != oracleQ2[0] {
		t.Fatalf("?engine=incremental after the load: %d %+v (%v), oracle %q", rec.Code, q, err, oracleQ2[0])
	}
	// /stats read the Snapshot once the load ended: at the last commit's
	// publication, the commits before it waited behind the load, and none
	// waited for room.
	var st queueStats
	rec = <-stats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusOK || st.Seq != commits ||
		st.Q2VerifiedSeq != commits || st.Q2Disagreements != 0 || st.Broken != "" || st.VerifyQueue != commits-1 || st.VerifyBlocked != 0 {
		t.Fatalf("/stats after the load: %d %+v (%v)", rec.Code, st, err)
	}
	if code := getJSON(t, ts.URL+"/query/q2?engine=incremental", &q); code != http.StatusOK || q.Seq != commits || q.Result != oracleQ2[commits] {
		t.Fatalf("?engine=incremental after %d commits: %d %+v, oracle %q", commits, code, q, oracleQ2[commits])
	}
}

// TestStartupVerifierLoadFailureBreaksServer fails the paper's Q2 in its
// load: the server turns broken — /update and /healthz answer 503 — and
// keeps serving the served answers at seq 0 and /stats, which reports the
// error and, with no commit verified, q2VerifiedSeq one below the base;
// ?engine=incremental, which has no answer, says why with a 503.
func TestStartupVerifierLoadFailureBreaksServer(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 67})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	boom := errors.New("injected verifier load failure")
	srv, err := New(Config{Dataset: d, verifyHook: func(commits int) error {
		if commits == 0 {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	deadline := time.Now().Add(30 * time.Second)
	for srv.brokenErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the failed load did not break the server within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.brokenErr(); !errors.Is(err, boom) {
		t.Fatalf("broken: %v, want the verifier's load error", err)
	}
	if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[0].Changes, true); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/update after the failed load: status %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "broken" {
		t.Fatalf("/healthz after the failed load: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[0], "/query/q2": oracleQ2[0], "/query/q2?engine=cc": oracleQ2[0]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != 0 || q.Result != want {
			t.Fatalf("%s after the failed load: %d %+v, oracle %q", path, code, q, want)
		}
	}
	var st verifiedStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.Seq != 0 || st.Q2VerifiedSeq != -1 ||
		!strings.Contains(st.Broken, boom.Error()) {
		t.Fatalf("/stats after the failed load: %d %+v", code, st)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/query/q2?engine=incremental", &e); code != http.StatusServiceUnavailable || !strings.Contains(e.Error, boom.Error()) {
		t.Fatalf("?engine=incremental after the failed load: %d %+v", code, e)
	}
}

// TestStartupCloseDuringVerifierLoad: Close waits for a held load, returns
// once it is released, and leaves no goroutine running.
func TestStartupCloseDuringVerifierLoad(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 71})
	before := runtime.NumGoroutine()
	hook, held, release := holdVerifierLoad()
	defer release()
	srv, err := New(Config{Dataset: d, Shards: 2, verifyHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the verifier's load is held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return within 30s of the load's release")
	}
	if got := waitGoroutines(before); got > before {
		t.Fatalf("%d goroutines after Close, %d before New", got, before)
	}
}
