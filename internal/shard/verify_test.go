package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
)

// startHooked starts an n-shard runtime on a State of snap with onVerify
// as its verifier hook, closed when the test ends.
func startHooked(t *testing.T, n int, snap *model.Snapshot, onVerify func(commits int) error) *Runtime {
	t.Helper()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(n, st, onVerify)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// holdLoad returns a verifier hook that holds the verifier's load until
// release is closed, and a channel closed once the load is held.
func holdLoad() (hook func(commits int) error, held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	return func(commits int) error {
		if commits == 0 {
			close(held)
			<-release
		}
		return nil
	}, held, release
}

// commitWithin commits each of sets in turn on another goroutine and fails
// the test unless all return within d.
func commitWithin(t *testing.T, rt *Runtime, sets []model.ChangeSet, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for k := range sets {
			if _, err := rt.Commit(&sets[k]); err != nil {
				done <- fmt.Errorf("commit %d: %w", k+1, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("%d commits did not return within %v", len(sets), d)
	}
}

// TestVerifierMatchesOracle: at 1 and 4 shards the paper's Q2, checking
// each commit off the barrier, equals the batch oracle at every commit it
// verifies and at the end of the stream, as the served q2cc does in the
// Record of the same commit, and never disagrees with it.
func TestVerifierMatchesOracle(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 31, RemovalFraction: 0.3})
	batches := rebatch(d, rand.New(rand.NewSource(5)))
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt, err := New(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			oracle := newBatchOracle(t, d.Snapshot)
			want := []string{rt.Record().Results["q2cc"]}
			first := rt.Verified() // holds every later value through At
			changes := 0
			for k := range batches {
				_, wantQ2 := oracle.update(t, &batches[k])
				rec, err := rt.Commit(&batches[k])
				if err != nil {
					t.Fatalf("commit %d: %v", k, err)
				}
				if rec.Results["q2cc"] != wantQ2 {
					t.Fatalf("commit %d: served q2cc %q, oracle %q", k, rec.Results["q2cc"], wantQ2)
				}
				want = append(want, wantQ2)
			}
			v := first
			for c := range want {
				v = v.At(c, true)
				if v.Err != nil || v.Commits != c {
					t.Fatalf("verified value for commit %d: commits %d, err %v", c, v.Commits, v.Err)
				}
				if v.Result != want[c] || v.Disagreements != 0 {
					t.Fatalf("commit %d: verified q2 %q (%d disagreements), oracle %q", c, v.Result, v.Disagreements, want[c])
				}
				if c > 0 {
					changes += len(batches[c-1].Changes)
				}
				if v.Changes != changes {
					t.Fatalf("commit %d: verified %d changes, committed %d", c, v.Changes, changes)
				}
			}
			if end := rt.Drain(); end != v {
				t.Fatalf("Drain returned commit %d, the stream ended at %d", end.Commits, v.Commits)
			}
		})
	}
}

// TestVerifierBackpressure holds the verifier on its first commit: the
// queue then fills with verifyDepth commits, the next hand-off blocks,
// and releasing the hold drains the queue.
func TestVerifierBackpressure(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 37, ChangeSets: verifyDepth + 4})
	held, release := make(chan struct{}), make(chan struct{})
	rt := startHooked(t, 2, d.Snapshot, func(commits int) error {
		if commits == 1 {
			close(held)
			<-release
		}
		return nil
	})
	oracle := newBatchOracle(t, d.Snapshot)
	var want string
	for k := 0; k < verifyDepth+1; k++ {
		if _, err := rt.Commit(&d.ChangeSets[k]); err != nil {
			t.Fatal(err)
		}
		_, want = oracle.update(t, &d.ChangeSets[k])
		if k == 0 {
			<-held
		}
	}
	if got := len(rt.ver.queue); got != verifyDepth {
		t.Fatalf("%d commits queued behind the held one, want %d", got, verifyDepth)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := rt.Commit(&d.ChangeSets[verifyDepth+1])
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("commit %d returned (%v) with %d commits queued", verifyDepth+2, err, verifyDepth)
	case <-time.After(100 * time.Millisecond):
	}
	if got := len(rt.ver.queue); got != verifyDepth {
		t.Fatalf("queue grew to %d while the verifier was held", got)
	}
	if v := rt.Verified(); v.Commits != 0 {
		t.Fatalf("verifier published commit %d while held on commit 1", v.Commits)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	_, want = oracle.update(t, &d.ChangeSets[verifyDepth+1])
	if v := rt.Drain(); v.Commits != verifyDepth+2 || v.Result != want || v.Disagreements != 0 {
		t.Fatalf("after release: commit %d, q2 %q (%d disagreements), oracle %q", v.Commits, v.Result, v.Disagreements, want)
	}
	if got := len(rt.ver.queue); got != 0 {
		t.Fatalf("%d commits still queued after the drain", got)
	}
}

// TestVerifierErrorIsFinal: an error on commit 2 is published on the value
// of commit 1; the verifier checks nothing after it, yet keeps taking
// hand-offs, so commits never block on it, and waits on it end.
func TestVerifierErrorIsFinal(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 41, ChangeSets: 2*verifyDepth + 4})
	boom := errors.New("injected")
	rt := startHooked(t, 1, d.Snapshot, func(commits int) error {
		if commits == 2 {
			return boom
		}
		return nil
	})
	first := rt.Verified()
	for k := range d.ChangeSets {
		if _, err := rt.Commit(&d.ChangeSets[k]); err != nil {
			t.Fatal(err)
		}
	}
	v := rt.Drain()
	if !errors.Is(v.Err, boom) || v.Commits != 1 {
		t.Fatalf("after a failed check of commit 2: commit %d, err %v", v.Commits, v.Err)
	}
	if got := first.At(len(d.ChangeSets), true); got != v {
		t.Fatalf("a wait past the failure ended on commit %d, err %v", got.Commits, got.Err)
	}
}

// TestStartupLeavesTheVerifierLoading holds the verifier's load: Start has
// returned with the served engines' answers, the verifier's value is the
// placeholder before commit 0, and verifyDepth commits hand over without
// blocking, queued behind the load. Released, the verifier checks Start's
// evaluation and every commit: each value equals the answer served for
// the same commit and the oracle's, with no disagreement.
func TestStartupLeavesTheVerifierLoading(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 47, RemovalFraction: 0.3, ChangeSets: verifyDepth})
	hook, held, release := holdLoad()
	rt := startHooked(t, 2, d.Snapshot, hook)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	<-held
	rec := rt.Record()
	if rec.Commits != 0 || rec.Results["q1"] == "" || rec.Results["q2cc"] == "" {
		t.Fatalf("Start's Record: %+v", rec)
	}
	first := rt.Verified()
	if first.Commits != -1 || first.Err != nil {
		t.Fatalf("verifier published commit %d (err %v) while its load is held", first.Commits, first.Err)
	}
	oracle := newBatchOracle(t, d.Snapshot)
	want := []string{rec.Results["q2cc"]}
	for k := range d.ChangeSets {
		_, q2 := oracle.update(t, &d.ChangeSets[k])
		want = append(want, q2)
	}
	commitWithin(t, rt, d.ChangeSets, 30*time.Second)
	if got := rt.VerifyQueue(); got != verifyDepth {
		t.Fatalf("%d commits queued behind the held load, want %d", got, verifyDepth)
	}
	if v := first.At(0, false); v != first {
		t.Fatalf("verifier published commit %d while its load is held", v.Commits)
	}
	close(release)
	v := first
	for c := range want {
		v = v.At(c, true)
		if v.Commits != c || v.Err != nil || v.Result != want[c] || v.Disagreements != 0 {
			t.Fatalf("commit %d: verified commit %d, q2 %q (%d disagreements, err %v), want %q",
				c, v.Commits, v.Result, v.Disagreements, v.Err, want[c])
		}
	}
	if end := rt.Drain(); end != v || rt.VerifyQueue() != 0 {
		t.Fatalf("Drain returned commit %d with %d queued, the stream ended at %d", end.Commits, rt.VerifyQueue(), v.Commits)
	}
}

// TestStartupVerifierLoadFailure: a load that fails is published as a
// failed value before commit 0, where waits for any commit end; the
// verifier checks nothing after it, yet keeps taking hand-offs.
func TestStartupVerifierLoadFailure(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 53, ChangeSets: 2*verifyDepth + 2})
	boom := errors.New("injected load failure")
	rt := startHooked(t, 1, d.Snapshot, func(commits int) error {
		if commits == 0 {
			return boom
		}
		t.Errorf("verifier checks commit %d after its load failed", commits)
		return nil
	})
	v := rt.Verified().At(0, true)
	if !errors.Is(v.Err, boom) || v.Commits != -1 {
		t.Fatalf("after a failed load: commit %d, err %v", v.Commits, v.Err)
	}
	commitWithin(t, rt, d.ChangeSets, 30*time.Second)
	if end := rt.Drain(); end != v {
		t.Fatalf("Drain after the failed load ended on commit %d, err %v", end.Commits, end.Err)
	}
}

// TestStartupCloseDuringVerifierLoad: Close waits for a held load, then
// returns once it is released, and leaves no goroutine running.
func TestStartupCloseDuringVerifierLoad(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 59})
	for _, n := range []int{1, 2} {
		before := runtime.NumGoroutine()
		hook, held, release := holdLoad()
		st, err := model.NewState(d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Start(n, st, hook)
		if err != nil {
			t.Fatal(err)
		}
		<-held
		closed := make(chan struct{})
		go func() {
			rt.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatalf("%d shards: Close returned while the verifier's load is held", n)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d shards: Close did not return within 30s of the load's release", n)
		}
		if v := rt.Verified(); v.Commits != 0 || v.Err != nil {
			t.Fatalf("%d shards: closed on commit %d, err %v, want Start's evaluation checked", n, v.Commits, v.Err)
		}
		if got := settledGoroutines(before); got > before {
			t.Fatalf("%d shards: %d goroutines after Close, %d before Start", n, got, before)
		}
	}
}
