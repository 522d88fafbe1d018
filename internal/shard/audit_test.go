package shard

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/model"
)

// The audit is the runtime's verifier of its served answers; the tests
// named after the verifier check it.

// startHooked starts an n-shard runtime on a State of snap, at base seq 0,
// with onAudit as its audit hook, closed when the test ends.
func startHooked(t *testing.T, n int, snap *model.Snapshot, onAudit func(seq int) error) *Runtime {
	t.Helper()
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(n, st, 0, onAudit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// holdAudit returns an audit hook that holds the audit of seq at until
// release is called, a channel closed once that audit is held, and
// release, which may be called more than once. Other audits pass.
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

// waitAudit waits until the auditor has published the audit it runs, if
// any, and is idle again, or has failed.
func waitAudit(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !rt.aud.idle.Load() && rt.Audited().Err == nil {
		if time.Now().After(deadline) {
			t.Fatal("the audit did not end within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
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

// batchAnswers returns Q1Batch's and Q2Batch's answers on snap.
func batchAnswers(t *testing.T, snap *model.Snapshot) (q1, q2 string) {
	t.Helper()
	var out [2]string
	for i, sol := range []core.Solution{core.NewQ1Batch(), core.NewQ2Batch()} {
		if err := sol.Load(snap); err != nil {
			t.Fatal(err)
		}
		res, err := sol.Initial()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.String()
	}
	return out[0], out[1]
}

// TestVerifierMatchesOracle: at 1 and 4 shards, a removal-heavy stream of
// 500 change sets commits while a hooked auditor, which does not rest,
// audits each commit it is offered while idle; every 25 commits the
// stream waits for it, so the commit after is audited. It records no
// disagreement, and at every audited seq the served q1 and q2 (q2cc's
// answer) equal Q1Batch's and Q2Batch's over Snapshot.Apply of the
// stream's prefix.
func TestVerifierMatchesOracle(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 31, RemovalFraction: 0.35, ChangeSets: 500})
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var mu sync.Mutex
			var seqs []int
			rt := startHooked(t, n, d.Snapshot, func(seq int) error {
				mu.Lock()
				seqs = append(seqs, seq)
				mu.Unlock()
				return nil
			})
			recs := []*Record{rt.Record()}
			for k := range d.ChangeSets {
				rec, err := rt.Commit(&d.ChangeSets[k])
				if err != nil {
					t.Fatalf("commit %d: %v", k+1, err)
				}
				recs = append(recs, rec)
				if k%25 == 24 {
					waitAudit(t, rt)
				}
			}
			waitAudit(t, rt)
			a := rt.Audited()
			mu.Lock()
			audited := slices.Clone(seqs)
			mu.Unlock()
			if a.Err != nil || a.Q1Disagreements != 0 || a.Q2Disagreements != 0 || a.Audits != len(audited) || len(audited) < 20 {
				t.Fatalf("after the stream: %+v, audited seqs %v", *a, audited)
			}
			snap := d.Snapshot.Clone()
			for seq, next := 0, 0; next < len(audited); seq++ {
				if seq > 0 {
					snap.Apply(&d.ChangeSets[seq-1])
				}
				if audited[next] != seq {
					continue
				}
				next++
				q1, q2 := batchAnswers(t, snap)
				if got := recs[seq].Results; got["q1"] != q1 || got["q2cc"] != q2 {
					t.Fatalf("seq %d: served q1 %q, q2 %q; batch %q, %q", seq, got["q1"], got["q2cc"], q1, q2)
				}
			}
			t.Logf("%d of %d seqs audited", len(audited), len(recs))
		})
	}
}

// TestVerifierBackpressure: an audit never holds a commit back. With an
// audit held, 16 commits, twice as many as the queue of the per-commit
// verifier this audit replaced held before it blocked them, return; no
// offer is taken meanwhile. Released, the held audit publishes, and the
// next commit is audited.
func TestVerifierBackpressure(t *testing.T) {
	const commits = 16
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 37, RemovalFraction: 0.3, ChangeSets: commits + 2})
	hook, held, release := holdAudit(1)
	rt := startHooked(t, 2, d.Snapshot, hook)
	t.Cleanup(release)
	waitAudit(t, rt)
	if _, err := rt.Commit(&d.ChangeSets[0]); err != nil {
		t.Fatal(err)
	}
	<-held
	commitWithin(t, rt, d.ChangeSets[1:commits+1], 30*time.Second)
	if a := rt.Audited(); a.Audits != 1 || a.Seq != 0 {
		t.Fatalf("while the audit of seq 1 is held: %+v", *a)
	}
	release()
	waitAudit(t, rt)
	if a := rt.Audited(); a.Audits != 2 || a.Seq != 1 || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("after the release: %+v", *a)
	}
	if _, err := rt.Commit(&d.ChangeSets[commits+1]); err != nil {
		t.Fatal(err)
	}
	waitAudit(t, rt)
	if a := rt.Audited(); a.Audits != 3 || a.Seq != commits+2 || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("after the next commit: %+v", *a)
	}
}

// TestVerifierErrorIsFinal: an audit that fails publishes its error,
// naming the seq it checked, beside the figures of the audits before it;
// the auditor audits nothing after it, and commits never wait on it.
func TestVerifierErrorIsFinal(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 41, ChangeSets: 20})
	boom := errors.New("injected")
	var mu sync.Mutex
	var failed []int
	rt := startHooked(t, 1, d.Snapshot, func(seq int) error {
		if seq < 2 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		failed = append(failed, seq)
		return boom
	})
	waitAudit(t, rt)
	for k := range d.ChangeSets {
		if _, err := rt.Commit(&d.ChangeSets[k]); err != nil {
			t.Fatal(err)
		}
		waitAudit(t, rt)
	}
	a := rt.Audited()
	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 1 || !errors.Is(a.Err, boom) || !strings.Contains(a.Err.Error(), fmt.Sprintf("seq %d", failed[0])) {
		t.Fatalf("after a failed audit: %+v, failing audits at %v", *a, failed)
	}
	if a.Audits != 2 || a.Seq != 1 {
		t.Fatalf("the failed audit published %d audits up to seq %d, want 2 up to 1", a.Audits, a.Seq)
	}
}

// TestStartupLeavesTheVerifierLoading holds the first audit, which checks
// Start's state: Start has returned with the served engines' answers,
// nothing is audited yet (Seq one below the base), and 16 commits return
// while the audit is held. Released, it checks Start's evaluation with no
// disagreement, and the next commit is audited.
func TestStartupLeavesTheVerifierLoading(t *testing.T) {
	const commits = 16
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 47, RemovalFraction: 0.3, ChangeSets: commits + 1})
	hook, held, release := holdAudit(0)
	rt := startHooked(t, 2, d.Snapshot, hook)
	t.Cleanup(release)
	<-held
	rec := rt.Record()
	if rec.Commits != 0 || rec.Results["q1"] == "" || rec.Results["q2cc"] == "" {
		t.Fatalf("Start's Record: %+v", rec)
	}
	if a := rt.Audited(); a.Audits != 0 || a.Seq != -1 || a.Err != nil {
		t.Fatalf("audited while the first audit is held: %+v", *a)
	}
	commitWithin(t, rt, d.ChangeSets[:commits], 30*time.Second)
	release()
	waitAudit(t, rt)
	if a := rt.Audited(); a.Audits != 1 || a.Seq != 0 || a.Err != nil || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("after the first audit: %+v", *a)
	}
	if _, err := rt.Commit(&d.ChangeSets[commits]); err != nil {
		t.Fatal(err)
	}
	waitAudit(t, rt)
	if a := rt.Audited(); a.Audits != 2 || a.Seq != commits+1 || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("after the next commit: %+v", *a)
	}
}

// TestStartupVerifierLoadFailure: a first audit that fails is published
// with no audit counted and Seq one below the base; the auditor audits
// nothing after it, and commits never wait on it.
func TestStartupVerifierLoadFailure(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 53, ChangeSets: 8})
	boom := errors.New("injected first audit failure")
	rt := startHooked(t, 1, d.Snapshot, func(seq int) error {
		if seq == 0 {
			return boom
		}
		t.Errorf("audit of seq %d after the first failed", seq)
		return nil
	})
	waitAudit(t, rt)
	if a := rt.Audited(); !errors.Is(a.Err, boom) || a.Audits != 0 || a.Seq != -1 {
		t.Fatalf("after a failed first audit: %+v", *a)
	}
	commitWithin(t, rt, d.ChangeSets, 30*time.Second)
}

// TestStartupCloseDuringVerifierLoad: Close waits for a held first audit,
// returns once it is released, and leaves no goroutine running.
func TestStartupCloseDuringVerifierLoad(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 59})
	for _, n := range []int{1, 2} {
		before := runtime.NumGoroutine()
		hook, held, release := holdAudit(0)
		st, err := model.NewState(d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Start(n, st, 0, hook)
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
			t.Fatalf("%d shards: Close returned while the audit is held", n)
		case <-time.After(50 * time.Millisecond):
		}
		release()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d shards: Close did not return within 30s of the audit's release", n)
		}
		if a := rt.Audited(); a.Audits != 1 || a.Seq != 0 || a.Err != nil {
			t.Fatalf("%d shards: closed with %+v, want Start's state audited", n, *a)
		}
		if got := settledGoroutines(before); got > before {
			t.Fatalf("%d shards: %d goroutines after Close, %d before Start", n, got, before)
		}
	}
}

// perturbedEngine is a served engine whose answer, from its after-th
// update on, leads with an entry no batch engine ranks.
type perturbedEngine struct {
	core.Engine
	updates, after int
}

func (p *perturbedEngine) UpdateRefs(refs []model.Ref) (core.Result, error) {
	res, err := p.Engine.UpdateRefs(refs)
	if p.updates++; err != nil || p.updates < p.after {
		return res, err
	}
	return append(core.Result{{ID: -1, Score: 1 << 40}}, res...), nil
}

// TestAuditCountsPerturbedAnswers swaps an engine that perturbs its
// answer from its fifth update on into the lineup, for q1 and for q2cc, on
// a runtime at base seq 100. Within two audits of the first Record that
// serves the perturbed answer, the audit counts a disagreement of that
// engine's query and none of the other, and its one log line names the
// first disagreeing seq, the engine and both answers.
func TestAuditCountsPerturbedAnswers(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 43, RemovalFraction: 0.3, ChangeSets: 40})
	for _, key := range []string{"q1", "q2cc"} {
		t.Run(key, func(t *testing.T) {
			var mu sync.Mutex
			var logs []string
			orig := logf
			t.Cleanup(func() { logf = orig })
			logf = func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			lineup := harness.ServedEngines()
			for k := range lineup {
				if e := &lineup[k]; e.Key == key {
					good := e.New
					e.New = func() core.Engine { return &perturbedEngine{Engine: good(), after: 5} }
				}
			}
			st, err := model.NewState(d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			const base = 100
			var seqs []int
			rt, err := start(1, st, base, lineup, func(seq int) error {
				mu.Lock()
				seqs = append(seqs, seq)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			perturbed := -1 // the seq of the first perturbed Record
			for k := range d.ChangeSets {
				rec, err := rt.Commit(&d.ChangeSets[k])
				if err != nil {
					t.Fatal(err)
				}
				waitAudit(t, rt)
				if perturbed < 0 && strings.HasPrefix(rec.Results[key], "-1|") {
					perturbed = base + rec.Commits
				}
				mu.Lock()
				after := 0
				for _, s := range seqs {
					if perturbed >= 0 && s >= perturbed {
						after++
					}
				}
				mu.Unlock()
				if after >= 2 {
					break
				}
			}
			if perturbed < 0 {
				t.Fatalf("no Record served the perturbed %s answer", key)
			}
			a := rt.Audited()
			mine, other := a.Q2Disagreements, a.Q1Disagreements
			if key == "q1" {
				mine, other = other, mine
			}
			if a.Err != nil || mine == 0 || other != 0 {
				t.Fatalf("%s perturbed from seq %d: %+v", key, perturbed, *a)
			}
			mu.Lock()
			defer mu.Unlock()
			first := -1
			for _, s := range seqs {
				if s >= perturbed {
					first = s
					break
				}
			}
			if len(logs) != 1 || !strings.Contains(logs[0], fmt.Sprintf("seq %d: %s served \"-1|", first, key)) {
				t.Fatalf("logged %q, want one line on seq %d's %s", logs, first, key)
			}
		})
	}
}
