package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
)

// addUsers returns n add-user changes for consecutive ids from base.
func addUsers(base model.ID, n int) []model.Change {
	changes := make([]model.Change, n)
	for i := range changes {
		changes[i] = model.Change{Kind: model.KindAddUser, User: model.User{ID: base + model.ID(i)}}
	}
	return changes
}

// enqueueWithin runs a waited Enqueue and fails the test if it has not
// returned within limit.
func enqueueWithin(t *testing.T, srv *Server, changes []model.Change, limit time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Enqueue(changes, true) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waited enqueue: %v", err)
		}
	case <-time.After(limit):
		t.Fatalf("waited enqueue still blocked after %v: its batch is lingering for FlushInterval", limit)
	}
}

// TestWaitedUpdateSkipsLinger pins the waiter rule of group commit: a
// batch holding a waited request commits as soon as the queue is empty,
// however long FlushInterval is, while unwaited requests queued ahead of
// it still share its commit.
func TestWaitedUpdateSkipsLinger(t *testing.T) {
	srv, err := New(Config{
		Dataset:       datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3}),
		MaxBatch:      64,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	enqueueWithin(t, srv, addUsers(810_000, 1), 10*time.Second)
	before := srv.Snapshot()
	if before.Seq != 1 || before.Changes != 1 {
		t.Fatalf("after one waited change: seq %d, changes %d; want 1, 1", before.Seq, before.Changes)
	}

	// The unwaited requests open a batch that lingers (for an hour); the
	// waited one joins it and ends the linger.
	const n = 10
	for i := 0; i < n; i++ {
		if err := srv.Enqueue(addUsers(model.ID(810_001+i), 1), false); err != nil {
			t.Fatalf("unwaited enqueue %d: %v", i, err)
		}
	}
	enqueueWithin(t, srv, addUsers(810_100, 1), 10*time.Second)
	after := srv.Snapshot()
	if after.Seq != before.Seq+1 || after.Changes != before.Changes+n+1 {
		t.Errorf("%d unwaited + 1 waited request: seq %d -> %d, changes %d -> %d; want one commit of %d changes",
			n, before.Seq, after.Seq, before.Changes, after.Changes, n+1)
	}
}

// TestGroupCommitKeepsMaxBatchAndAtomicity holds the writer while waited
// requests from several goroutines queue up (more changes in total than
// MaxBatch), then lets it go. Each batch must close at the first request
// that reaches MaxBatch — not before, and without splitting that request —
// the last one once the queue is empty, and every waiter must be answered
// only after its batch is published.
func TestGroupCommitKeepsMaxBatchAndAtomicity(t *testing.T) {
	const (
		maxBatch = 64
		per      = 20 // changes per request: 4 requests (80 changes) close a batch
		requests = 10
	)
	var (
		mu      sync.Mutex
		batches [][]int              // request sizes of each closed batch
		seqOf   = map[model.ID]int{} // first id of a request -> seq of its batch
		entered = make(chan struct{})
		release = make(chan struct{})
		srv     *Server
	)
	hook := func(batch []updateReq) {
		mu.Lock()
		seq := srv.Snapshot().Seq + 1
		sizes := make([]int, len(batch))
		for i, r := range batch {
			sizes[i] = len(r.changes)
			seqOf[r.changes[0].User.ID] = seq
		}
		batches = append(batches, sizes)
		first := len(batches) == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
	}
	srv, err := New(Config{
		Dataset:       datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 4}),
		MaxBatch:      maxBatch,
		FlushInterval: time.Hour,
		batchHook:     hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The first waited request closes a batch of its own; the hook holds
	// the writer there.
	blocker := make(chan error, 1)
	go func() { blocker <- srv.Enqueue(addUsers(900_000, 1), true) }()
	<-entered

	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(base model.ID) {
			defer wg.Done()
			if err := srv.Enqueue(addUsers(base, per), true); err != nil {
				errs <- err
				return
			}
			published := srv.Snapshot().Seq
			mu.Lock()
			seq := seqOf[base]
			mu.Unlock()
			if published < seq {
				errs <- fmt.Errorf("request %d answered at seq %d, before its batch (seq %d) was published", base, published, seq)
			}
		}(model.ID(910_000 + g*per))
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueDepth() < requests {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued behind the held writer", srv.QueueDepth(), requests)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}

	perBatch := (maxBatch + per - 1) / per
	wantCommits := 1 + (requests+perBatch-1)/perBatch
	snap := srv.Snapshot()
	if snap.Seq != wantCommits || snap.Changes != 1+requests*per {
		t.Errorf("seq %d, changes %d; want %d commits of %d changes", snap.Seq, snap.Changes, wantCommits, 1+requests*per)
	}
	mu.Lock()
	defer mu.Unlock()
	for b, sizes := range batches[1:] {
		n, last := 0, 0
		for _, size := range sizes {
			if size != per {
				t.Errorf("batch %d holds a request of %d changes, want %d: a request was split", b+1, size, per)
			}
			n += size
			last = size
		}
		if b+1 < len(batches)-1 && (n < maxBatch || n-last >= maxBatch) {
			t.Errorf("batch %d holds %d changes (last request %d): not closed at the first request reaching %d", b+1, n, last, maxBatch)
		}
	}
}
