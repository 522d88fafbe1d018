package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datagen"
)

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
	rt, err := New(2, d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	held, release := make(chan struct{}), make(chan struct{})
	rt.OnVerify = func(commits int) error {
		if commits == 1 {
			close(held)
			<-release
		}
		return nil
	}
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
	rt, err := New(1, d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	boom := errors.New("injected")
	rt.OnVerify = func(commits int) error {
		if commits == 2 {
			return boom
		}
		return nil
	}
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
