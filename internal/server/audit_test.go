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
	"repro/internal/model"
	"repro/internal/wal"
)

// The runtime's audit is the server's verifier of its served answers; the
// tests named after the verifier check it over the server.

// auditStats is the part of /stats the audit tests read.
type auditStats struct {
	Seq             int    `json:"seq"`
	AuditedSeq      int    `json:"auditedSeq"`
	Q1Disagreements int    `json:"q1Disagreements"`
	Q2Disagreements int    `json:"q2Disagreements"`
	Broken          string `json:"broken"`
}

// checkAudits asserts that no audit of srv's runtime has failed or found a
// disagreement, and that none is ahead of the published seq.
func checkAudits(t *testing.T, label string, srv *Server) {
	t.Helper()
	a := srv.rt.Audited()
	if seq := srv.Snapshot().Seq; a.Err != nil || a.Q1Disagreements+a.Q2Disagreements != 0 || a.Seq > seq {
		t.Fatalf("%s: audited %+v at seq %d", label, *a, seq)
	}
}

// awaitAudit polls for up to 20ms until an audit has checked seq or a
// later one, or has failed: long enough for an audit the last commit's
// offer started at sf 1.
func awaitAudit(srv *Server, seq int) {
	for wait := time.Now().Add(20 * time.Millisecond); time.Now().Before(wait); {
		if a := srv.rt.Audited(); a.Seq >= seq || a.Err != nil {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitAudited polls until an audit has checked seq or a later one.
func waitAudited(t *testing.T, srv *Server, seq int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for a := srv.rt.Audited(); a.Seq < seq; a = srv.rt.Audited() {
		if a.Err != nil {
			t.Fatalf("audit failed: %v", a.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no audit of seq %d or later within 30s (last %d)", seq, a.Seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdAudit returns an audit hook that holds the audit of seq at until
// release is called, a channel closed once that audit is held, and
// release, which may be called more than once and must be called before
// the server closes. Other audits pass.
func holdAudit(at int) (hook func(seq int) error, held chan struct{}, release func()) {
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(seq int) error {
		if seq == at {
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

// TestVerifierOverHTTP: at 1 and 4 shards, with a hooked audit that does
// not rest, after every waited update /stats answers at once with an
// audited seq no later than its seq and no disagreement, every query
// answers the oracle's at that seq, ?engine=incremental on /query/q1
// answers as the served engine does, and on /query/q2 is refused with 400,
// as any unknown engine is. The audits reach the last seq.
func TestVerifierOverHTTP(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 23, RemovalFraction: 0.3})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := New(Config{Dataset: d, Shards: shards, auditHook: func(int) error { return nil }})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			n := len(d.ChangeSets)
			for k := 0; k <= n; k++ {
				if k > 0 {
					if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k-1].Changes, true); resp.StatusCode != http.StatusOK {
						t.Fatalf("update %d: status %d", k, resp.StatusCode)
					}
				}
				var st auditStats
				getJSON(t, ts.URL+"/stats", &st)
				if st.Seq != k || st.AuditedSeq > k || st.AuditedSeq < -1 || st.Q1Disagreements+st.Q2Disagreements != 0 {
					t.Fatalf("seq %d: /stats %+v", k, st)
				}
				var q queryResponse
				for path, want := range map[string]string{
					"/query/q1": oracleQ1[k], "/query/q1?engine=incremental": oracleQ1[k],
					"/query/q2": oracleQ2[k], "/query/q2?engine=cc": oracleQ2[k],
				} {
					if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != k || q.Result != want {
						t.Fatalf("seq %d: %s answered %d %+v, oracle %q", k, path, code, q, want)
					}
				}
				var e struct {
					Error string `json:"error"`
				}
				if code := getJSON(t, ts.URL+"/query/q2?engine=incremental", &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "unknown engine") {
					t.Fatalf("seq %d: ?engine=incremental on /query/q2 answered %d %+v, want 400", k, code, e)
				}
			}
			// The last commit is offered only if the audit was idle, so
			// commit fresh comments until an audit reaches the stream's end.
			post := d.Snapshot.Posts[0].ID
			for k := 0; srv.rt.Audited().Seq < n; k++ {
				if k == 1000 {
					t.Fatalf("no audit reached seq %d: %+v", n, *srv.rt.Audited())
				}
				ch := model.Change{Kind: model.KindAddComment, Comment: model.Comment{
					ID: model.ID(9_000_000 + k), Timestamp: int64(k), ParentID: post, PostID: post,
				}}
				if err := srv.Enqueue([]model.Change{ch}, true); err != nil {
					t.Fatal(err)
				}
				awaitAudit(srv, n)
			}
			checkAudits(t, "after the stream", srv)
		})
	}
}

// TestVerifierFailureLeavesServerBroken fails every audit from seq 2 on:
// the commits are acknowledged (audits run after publication), then the
// server turns broken — /update and /healthz answer 503 — while every
// read keeps serving: the served answers at the last seq, and /stats with
// the audit's error and the seq of the last audit that passed.
func TestVerifierFailureLeavesServerBroken(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 29})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	boom := errors.New("injected audit failure")
	srv, err := New(Config{Dataset: d, Shards: 2, auditHook: func(seq int) error {
		if seq >= 2 {
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
	// An offer is taken only while the audit is idle, so commit until an
	// audit of seq 2 or later has run.
	seq := 0
	deadline := time.Now().Add(30 * time.Second)
	for srv.brokenErr() == nil {
		if time.Now().After(deadline) || seq == len(d.ChangeSets)-1 {
			t.Fatalf("no failed audit after %d commits", seq)
		}
		switch resp, _ := postUpdate(t, ts.URL, d.ChangeSets[seq].Changes, true); {
		case resp.StatusCode == http.StatusOK:
			seq++
		case resp.StatusCode != http.StatusServiceUnavailable || srv.brokenErr() == nil:
			t.Fatalf("update %d: status %d", seq+1, resp.StatusCode)
		}
		awaitAudit(srv, 2)
	}
	if err := srv.brokenErr(); !errors.Is(err, boom) {
		t.Fatalf("broken: %v, want the audit's error", err)
	}
	if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[seq].Changes, true); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/update after the failed audit: status %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "broken" {
		t.Fatalf("/healthz after the failed audit: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[seq], "/query/q2": oracleQ2[seq], "/query/q2?engine=cc": oracleQ2[seq]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != seq || q.Result != want {
			t.Fatalf("%s after the failed audit: %d %+v, oracle %q", path, code, q, want)
		}
	}
	var st auditStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.Seq != seq || st.AuditedSeq < 0 || st.AuditedSeq >= 2 ||
		!strings.Contains(st.Broken, boom.Error()) {
		t.Fatalf("/stats after the failed audit: %d %+v", code, st)
	}
}

// TestReplayIsAuditedAfterReady: WAL replay checks no recovered batch. A
// restarted server is ready, at the recovered seq, while the audit of its
// base state is held; once it is released, an audit of the recovered
// state (or of a later commit on it) runs with no disagreement.
func TestReplayIsAuditedAfterReady(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 43, RemovalFraction: 0.2})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
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

	hook, held, release := holdAudit(0)
	cfg.auditHook = hook
	srv, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release()
	<-held
	waitReady(t, srv)
	checkAgainstOracle(t, "ready", srv.Snapshot(), n, oracleQ1, oracleQ2)
	if a := srv.rt.Audited(); a.Audits != 0 {
		t.Fatalf("ready with %+v, want the base state's audit still held", *a)
	}
	release()
	// An offer is taken only while the audit is idle, so commit until an
	// audit covers the recovered state.
	deadline := time.Now().Add(30 * time.Second)
	for k := n; srv.rt.Audited().Seq < n; k++ {
		if time.Now().After(deadline) || k == len(d.ChangeSets) {
			t.Fatalf("no audit of seq %d or later: %+v", n, *srv.rt.Audited())
		}
		if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
			t.Fatal(err)
		}
		awaitAudit(srv, n)
	}
	checkAudits(t, "after replay", srv)
}

// TestStartupServesBeforeTheVerifierLoads holds the first audit, of the
// base state: New has returned and the server is ready, the served engines
// answer at seq 0, and 16 waited updates (twice the queue the per-commit
// verifier this audit replaced held before it blocked commits) commit
// while /stats answers at once with nothing audited. Released, the audit
// checks the base state with no disagreement.
func TestStartupServesBeforeTheVerifierLoads(t *testing.T) {
	const commits = 16
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 61, RemovalFraction: 0.2, ChangeSets: commits})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	hook, held, release := holdAudit(0)
	srv, err := New(Config{Dataset: d, Shards: 2, auditHook: hook})
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
		t.Fatalf("/healthz while the first audit is held: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[0], "/query/q2": oracleQ2[0], "/query/q2?engine=cc": oracleQ2[0]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != 0 || q.Result != want {
			t.Fatalf("%s while the first audit is held: %d %+v, oracle %q", path, code, q, want)
		}
	}
	for k := 0; k < commits; k++ {
		if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[k].Changes, true); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d while the first audit is held: status %d", k+1, resp.StatusCode)
		}
		select {
		case rec := <-serveAsync(srv.Handler(), "/stats"):
			var st auditStats
			if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusOK || st.Seq != k+1 || st.AuditedSeq != -1 {
				t.Fatalf("/stats at seq %d while the first audit is held: %d %+v (%v)", k+1, rec.Code, st, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("/stats did not answer within 30s while the first audit is held")
		}
	}
	release()
	waitAudited(t, srv, 0)
	checkAudits(t, "after the release", srv)
}

// TestStartupVerifierLoadFailureBreaksServer fails the first audit, of the
// base state: the server turns broken — /update and /healthz answer 503 —
// and keeps serving the served answers at seq 0 and /stats, which reports
// the error and, with nothing audited, auditedSeq one below the base.
func TestStartupVerifierLoadFailureBreaksServer(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 67})
	oracleQ1, oracleQ2 := oracle(t, "Q1", d), oracle(t, "Q2", d)
	boom := errors.New("injected first audit failure")
	srv, err := New(Config{Dataset: d, auditHook: func(seq int) error {
		if seq == 0 {
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
			t.Fatal("the failed first audit did not break the server within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.brokenErr(); !errors.Is(err, boom) {
		t.Fatalf("broken: %v, want the audit's error", err)
	}
	if resp, _ := postUpdate(t, ts.URL, d.ChangeSets[0].Changes, true); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/update after the failed audit: status %d, want 503", resp.StatusCode)
	}
	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "broken" {
		t.Fatalf("/healthz after the failed audit: %d %+v", code, h)
	}
	var q queryResponse
	for path, want := range map[string]string{"/query/q1": oracleQ1[0], "/query/q2": oracleQ2[0], "/query/q2?engine=cc": oracleQ2[0]} {
		if code := getJSON(t, ts.URL+path, &q); code != http.StatusOK || q.Seq != 0 || q.Result != want {
			t.Fatalf("%s after the failed audit: %d %+v, oracle %q", path, code, q, want)
		}
	}
	var st auditStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.Seq != 0 || st.AuditedSeq != -1 ||
		!strings.Contains(st.Broken, boom.Error()) {
		t.Fatalf("/stats after the failed audit: %d %+v", code, st)
	}
}

// TestStartupCloseDuringVerifierLoad: Close waits for a held first audit,
// returns once it is released, and leaves no goroutine running.
func TestStartupCloseDuringVerifierLoad(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 71})
	before := runtime.NumGoroutine()
	hook, held, release := holdAudit(0)
	defer release()
	srv, err := New(Config{Dataset: d, Shards: 2, auditHook: hook})
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
		t.Fatal("Close returned while the first audit is held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return within 30s of the audit's release")
	}
	if got := waitGoroutines(before); got > before {
		t.Fatalf("%d goroutines after Close, %d before New", got, before)
	}
}
