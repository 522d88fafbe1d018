package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/model"
)

// oracle computes the reference answer sequence for a query with the batch
// engine driven by the TTC harness: element k is the answer after the first
// k change sets have been applied.
func oracle(t *testing.T, query string, d *model.Dataset) []string {
	t.Helper()
	m, err := harness.RunOnce(harness.Factories(query)["batch"], d)
	if err != nil {
		t.Fatalf("oracle %s: %v", query, err)
	}
	return m.Results
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func postUpdate(t *testing.T, url string, changes []model.Change, wait bool) (*http.Response, updateResponse) {
	t.Helper()
	wire := make([]any, len(changes))
	for i, ch := range changes {
		wire[i] = WireChange(ch)
	}
	body, err := json.Marshal(map[string]any{"changes": wire, "wait": wait})
	if err != nil {
		t.Fatalf("marshal update: %v", err)
	}
	resp, err := http.Post(url+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /update: %v", err)
	}
	defer resp.Body.Close()
	var ur updateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			t.Fatalf("POST /update: decode: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, ur
}

// TestServeConcurrentReadsWithOracle is the end-to-end serving test: ≥8
// concurrent readers hammer /query/q1 and /query/q2 while the update stream
// of a generated dataset is committed change set by change set. Every
// served answer must equal the batch-engine oracle's answer for the same
// committed prefix (identified by the response's seq), i.e. readers observe
// only committed, consistent states. Run under -race this also exercises
// the snapshot store, write queue and per-shard applies for data races; the
// multi-shard variant is the serving-level oracle equivalence test required
// by the sharded runtime (answers merged at commit time must be
// indistinguishable from the 1-shard runtime's).
func TestServeConcurrentReadsWithOracle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testServeConcurrentReadsWithOracle(t, shards)
		})
	}
}

func testServeConcurrentReadsWithOracle(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 42})
	oracleQ1 := oracle(t, "Q1", d)
	oracleQ2 := oracle(t, "Q2", d)

	srv, err := New(Config{Dataset: d, FlushInterval: time.Millisecond, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Readers: 4 per query plus 2 on the CC extension = 10 concurrent
	// clients, each checking every response against the oracle.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	var readerErr atomic.Value // first error, if any (t.Fatalf must not be called off the test goroutine)
	reader := func(path string, want []string) {
		defer wg.Done()
		client := ts.Client()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				readerErr.CompareAndSwap(nil, fmt.Errorf("GET %s: %w", path, err))
				return
			}
			var qr queryResponse
			err = json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if err != nil {
				readerErr.CompareAndSwap(nil, fmt.Errorf("GET %s: decode: %w", path, err))
				return
			}
			if qr.Seq < 0 || qr.Seq >= len(want) {
				readerErr.CompareAndSwap(nil, fmt.Errorf("GET %s: seq %d out of range", path, qr.Seq))
				return
			}
			if qr.Result != want[qr.Seq] {
				readerErr.CompareAndSwap(nil, fmt.Errorf("GET %s: served %q at seq %d, oracle says %q",
					path, qr.Result, qr.Seq, want[qr.Seq]))
				return
			}
			reads.Add(1)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go reader("/query/q1", oracleQ1)
		go reader("/query/q2", oracleQ2)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go reader("/query/q2?engine=cc", oracleQ2)
	}

	// The single updater walks the dataset's change stream. wait=true means
	// each request commits in its own batch, so seq k ↔ oracle index k.
	for k := range d.ChangeSets {
		resp, ur := postUpdate(t, ts.URL, d.ChangeSets[k].Changes, true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", k, resp.StatusCode)
		}
		if !ur.Committed || ur.Seq != k+1 {
			t.Fatalf("update %d: got committed=%v seq=%d, want true %d", k, ur.Committed, ur.Seq, k+1)
		}
		var qr queryResponse
		getJSON(t, ts.URL+"/query/q1", &qr)
		if qr.Seq != k+1 || qr.Result != oracleQ1[k+1] {
			t.Fatalf("after update %d: Q1 seq=%d result=%q, oracle %q", k, qr.Seq, qr.Result, oracleQ1[k+1])
		}
		getJSON(t, ts.URL+"/query/q2", &qr)
		if qr.Seq != k+1 || qr.Result != oracleQ2[k+1] {
			t.Fatalf("after update %d: Q2 seq=%d result=%q, oracle %q", k, qr.Seq, qr.Result, oracleQ2[k+1])
		}
	}

	close(stop)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("readers performed no reads")
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Seq != len(d.ChangeSets) || st.Updates.Count != len(d.ChangeSets) {
		t.Errorf("stats: seq=%d updates=%d, want %d", st.Seq, st.Updates.Count, len(d.ChangeSets))
	}
	if st.Q2Disagreements != 0 {
		t.Errorf("Q2 engines disagreed on %d commits", st.Q2Disagreements)
	}
	if st.Engines[EngineQ1].NNZ == 0 || st.Engines[EngineQ2].NNZ == 0 || st.Engines[EngineQ2CC].NNZ == 0 {
		t.Errorf("engine stats missing nnz: %+v", st.Engines)
	}
	if len(st.Shards) != shards {
		t.Fatalf("stats report %d shards, want %d", len(st.Shards), shards)
	}
	totalCommits := 0
	for _, sh := range st.Shards {
		totalCommits += sh.Commits
		if sh.Commits > 0 && sh.Mean == 0 && sh.Last == 0 {
			t.Errorf("shard %d: %d commits but no latency recorded", sh.Shard, sh.Commits)
		}
	}
	if totalCommits == 0 {
		t.Error("no shard reported any commit")
	}
	t.Logf("%d concurrent reads validated against the oracle across %d commits (%d shards)",
		reads.Load(), st.Seq, shards)
}

// TestUpdateValidation checks that malformed and integrity-violating
// updates are rejected without corrupting the served state.
func TestUpdateValidation(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 7})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := srv.Snapshot()

	// Unknown change kind → 400 at decode time.
	resp, err := http.Post(ts.URL+"/update", "application/json",
		bytes.NewReader([]byte(`{"changes":[{"kind":"explode"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", resp.StatusCode)
	}

	// Like of a nonexistent comment → 409 integrity rejection.
	resp, _ = postUpdate(t, ts.URL, []model.Change{{
		Kind: model.KindAddLike,
		Like: model.Like{UserID: 1, CommentID: 999_999_999},
	}}, true)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("dangling like: status %d, want 409", resp.StatusCode)
	}

	// A comment whose root pointer disagrees with its parent chain violates
	// the same invariant model.Validate enforces → 409. Posts 1000001 and
	// 1000002 both exist; replying to post 1000001 while rooting at 1000002
	// is inconsistent.
	resp, _ = postUpdate(t, ts.URL, []model.Change{{
		Kind:    model.KindAddComment,
		Comment: model.Comment{ID: 5_000_001, Timestamp: 1, ParentID: 1_000_001, PostID: 1_000_002},
	}}, true)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("inconsistent comment root: status %d, want 409", resp.StatusCode)
	}

	// A request is atomic: a valid change followed by an invalid one must
	// leave no trace of either. Post 1000001 exists in every generated
	// dataset (ids are dense from the generator's base), so re-adding it is
	// a duplicate.
	resp, _ = postUpdate(t, ts.URL, []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 777_001}},
		{Kind: model.KindAddPost, Post: model.Post{ID: 1_000_001}},
	}, true)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("atomic request with duplicate post: status %d, want 409", resp.StatusCode)
	}
	// Re-adding the same user must now succeed iff the earlier atomic
	// request was fully rolled back.
	resp, _ = postUpdate(t, ts.URL, []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 777_001}},
	}, true)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("user add after rollback: status %d, want 200", resp.StatusCode)
	}

	// The server stayed healthy and kept serving.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", hr.StatusCode)
	}
	var qr queryResponse
	getJSON(t, ts.URL+"/query/q1", &qr)
	if qr.Result != before.Results[EngineQ1] {
		t.Errorf("Q1 result changed across rejected updates: %q vs %q", qr.Result, before.Results[EngineQ1])
	}
}

// TestUpdateBodyTooLarge sends an /update body over the cap: it is answered
// 413 and nothing is enqueued or committed.
func TestUpdateBodyTooLarge(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 7})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var body bytes.Buffer
	body.WriteString(`{"wait":true,"changes":[`)
	for i := 0; body.Len() <= maxUpdateBytes; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"kind":"add-user","user":{"id":%d}}`, 820_000+i)
	}
	body.WriteString("]}")
	resp, err := http.Post(ts.URL+"/update", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if snap := srv.Snapshot(); snap.Seq != 0 || snap.Changes != 0 || srv.QueueDepth() != 0 {
		t.Errorf("oversized body reached the writer: seq %d, changes %d, queued %d", snap.Seq, snap.Changes, srv.QueueDepth())
	}
}

// TestBatching exercises the fire-and-forget path: many small requests
// merge into few commits, and a final waited request flushes everything
// (FIFO order guarantees all earlier requests are committed by then).
func TestBatching(t *testing.T) {
	srv, err := New(Config{
		Dataset:       datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 11}),
		MaxBatch:      8,
		FlushInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 40
	for i := 0; i < n; i++ {
		err := srv.Enqueue([]model.Change{
			{Kind: model.KindAddUser, User: model.User{ID: model.ID(800_000 + i)}},
		}, false)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := srv.Enqueue([]model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 800_999}},
	}, true); err != nil {
		t.Fatalf("flush enqueue: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Changes != n+1 {
		t.Errorf("committed %d changes, want %d", snap.Changes, n+1)
	}
	if snap.Seq > n+1 {
		t.Errorf("used %d commits for %d requests; batching is not merging", snap.Seq, n+1)
	}
}

// TestBackpressureDoesNotDeadlock floods a depth-1 queue from many
// producers while other goroutines contend on the server mutex (stats,
// snapshot reads, health checks). A producer blocked on the full queue must
// never hold the lock the writer needs to commit — this hangs (and fails on
// timeout) if Enqueue sends while holding it.
func TestBackpressureDoesNotDeadlock(t *testing.T) {
	srv, err := New(Config{
		Dataset:       datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 5}),
		QueueDepth:    1,
		MaxBatch:      4,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const producers, perProducer = 8, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // mutex contenders
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/stats")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	var enqErr atomic.Value
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := model.ID(850_000 + p*perProducer + i)
				if err := srv.Enqueue([]model.Change{
					{Kind: model.KindAddUser, User: model.User{ID: id}},
				}, false); err != nil {
					enqErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(p)
	}

	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()

	// Give the whole flood a hard deadline well under the test timeout.
	flushed := make(chan error, 1)
	go func() {
		// A final waited request flushes everything queued before it (FIFO).
		flushed <- srv.Enqueue([]model.Change{
			{Kind: model.KindAddUser, User: model.User{ID: 859_999}},
		}, true)
	}()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("flush enqueue: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: waited enqueue did not complete within 30s")
	}
	close(stop)
	select {
	case <-producersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: producers did not finish within 30s")
	}
	if err := enqErr.Load(); err != nil {
		t.Fatalf("producer enqueue failed: %v", err)
	}
}

// TestCloseDuringWaitedEnqueue is the shutdown-race regression test: many
// goroutines issue waited Enqueues while Close runs concurrently (with a
// deliberately tiny queue so producers block on a full channel mid-race).
// Every waiter must return promptly — nil for requests that made it into a
// committed batch, ErrClosed for ones that lost the race — and never hang.
// The audit on Server.Close documents why: the producers WaitGroup delays
// the channel close past every in-flight send, and the batching goroutine
// drains and answers everything that was sent. Run under -race this also
// checks the closing/producers handshake for data races.
func TestCloseDuringWaitedEnqueue(t *testing.T) {
	for round := 0; round < 5; round++ {
		srv, err := New(Config{
			Dataset:       datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 21}),
			QueueDepth:    1,
			MaxBatch:      4,
			FlushInterval: time.Millisecond,
			Shards:        2,
		})
		if err != nil {
			t.Fatal(err)
		}

		const writers, perWriter = 6, 10
		results := make(chan error, writers*perWriter)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := model.ID(900_000 + round*10_000 + w*perWriter + i)
					results <- srv.Enqueue([]model.Change{
						{Kind: model.KindAddUser, User: model.User{ID: id}},
					}, true)
				}
			}(w)
		}
		// Close while the waited writers are in full flight.
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()

		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("shutdown race: waited Enqueue hung across Close")
		}
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("shutdown race: Close hung")
		}
		close(results)
		committed, rejected := 0, 0
		for err := range results {
			switch {
			case err == nil:
				committed++
			case errors.Is(err, ErrClosed):
				rejected++
			default:
				t.Fatalf("waited enqueue returned unexpected error: %v", err)
			}
		}
		// Committed waiters must be visible in the final snapshot.
		if got := srv.Snapshot().Changes; got != committed {
			t.Errorf("round %d: snapshot has %d committed changes, %d waiters got nil", round, got, committed)
		}
		// After Close every further write fails fast.
		err = srv.Enqueue([]model.Change{{Kind: model.KindAddUser, User: model.User{ID: 1}}}, true)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("round %d: enqueue after close: %v, want ErrClosed", round, err)
		}
	}
}

// TestCloseRejectsWrites checks the shutdown contract.
func TestCloseRejectsWrites(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3})})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	err = srv.Enqueue([]model.Change{{Kind: model.KindAddUser, User: model.User{ID: 1_000_000}}}, true)
	if !errors.Is(err, ErrClosed) {
		t.Errorf("enqueue after close: %v, want ErrClosed", err)
	}
}

// TestStatsReportPendingTuples: after a waited update the matrix engines
// hold pending tuples, and /stats must report them — reading engine stats
// must not assemble the matrices first.
func TestStatsReportPendingTuples(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3})
	srv, err := New(Config{Dataset: d, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := d.Snapshot.Posts[0]
	liker := d.Snapshot.Users[0].ID
	resp, _ := postUpdate(t, ts.URL, []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 1_000_000, Timestamp: 1 << 40, ParentID: post.ID, PostID: post.ID}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: liker, CommentID: 1_000_000}},
	}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update: status %d", resp.StatusCode)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	for _, key := range []string{EngineQ1, EngineQ2} {
		if st.Engines[key].Pending == 0 {
			t.Errorf("/stats engines.%s.pending = 0 after a waited update: %+v", key, st.Engines[key])
		}
	}
}
