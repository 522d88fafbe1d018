package shard

import (
	"fmt"
	"log"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// The audit checks the served answers against the batch engines, the
// paper's from-scratch reference, off the commit path: differential
// testing (McKeeman, "Differential Testing for Software", DTJ 1998). One
// goroutine, started by Start, takes a View of the State at a published
// commit with that commit's Record, reads the View into the refs that
// build it and releases it at once, then loads Q1Batch on them, evaluates
// it and drops it, and loads Q2Batch over every comment, with no router,
// drops the refs and evaluates it. Each batch answer is compared with the
// Record's answer of every served engine of its query: q1's, and q2cc's
// merged with the parked comments, so the router's merge is checked too.
// A difference counts as a disagreement, and the first one is logged with
// its seq and both answers. An audit error is final: the auditor audits
// nothing after it, and a serving layer treats it as an engine failure.
//
// After each audit the auditor rests auditRest times the audit's
// duration. The committing goroutine offers it each published commit
// (Audit), but an offer is taken only while the auditor is idle and
// rested, so a commit never waits for it. Start offers its own state, so
// the first audit checks Start's evaluation.
//
// An audit allocates about as much as the served state holds (4.2 MiB at
// sf 32), and a collection that runs during it sets the next heap goal to
// twice the served state plus what the audit then holds. So after each
// audit, before publishing it, the auditor collects, setting the goal
// back to twice the served state; the collection counts toward the
// audit's duration, and so toward its rest.

// auditRest is how many times an audit's duration the auditor rests after
// it, so it takes at most 1/(auditRest+1), 5%, of one core.
const auditRest = 19

// logf logs the first disagreement.
var logf = log.Printf

// Audited is the auditor's published state after its last audit, never
// changed once published.
type Audited struct {
	// Audits counts the audits run since Start, and Seq is the seq of the
	// state the last one checked (Start's base plus its Record's Commits),
	// or one below the base before the first.
	Audits, Seq int
	// Q1Disagreements and Q2Disagreements count the audits in which a
	// served Q1 or Q2 answer differed from the batch engine's.
	Q1Disagreements, Q2Disagreements int
	// Err is set when an audit failed.
	Err error
}

// offer is one published commit on its way to the auditor: a View of the
// State after it, the View's release and the commit's Record.
type offer struct {
	view    *model.View
	release func()
	rec     *Record
}

// auditor runs the audits. The committing goroutine swaps idle to false
// when it sends an offer, and the auditor sets it back once it has audited
// that offer and rested, so offers has room for the one offer in flight.
type auditor struct {
	base   int
	served []harness.ServedEngine
	hook   func(seq int) error // Start's onAudit

	idle       atomic.Bool
	offers     chan offer
	stop, done chan struct{}
	last       atomic.Pointer[Audited]
}

func newAuditor(base int, served []harness.ServedEngine, hook func(seq int) error) *auditor {
	a := &auditor{
		base:   base,
		served: served,
		hook:   hook,
		offers: make(chan offer, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	a.last.Store(&Audited{Seq: base - 1})
	a.idle.Store(true)
	go a.run()
	return a
}

// run audits each offer until stop is closed or an audit fails, resting
// after each audit; a hooked auditor does not rest.
func (a *auditor) run() {
	defer close(a.done)
	for {
		var o offer
		select {
		case o = <-a.offers:
		case <-a.stop:
			select {
			case o := <-a.offers:
				o.release()
			default:
			}
			return
		}
		start := time.Now()
		next := a.audit(o)
		if next.Err != nil {
			a.last.Store(next)
			return
		}
		runtime.GC()
		a.last.Store(next)
		if a.hook == nil {
			rest := time.NewTimer(auditRest * time.Since(start))
			select {
			case <-rest.C:
			case <-a.stop:
				rest.Stop()
				return
			}
		}
		a.idle.Store(true)
	}
}

// audit checks the served answers of o's Record against the batch
// engines run on o's View and returns the auditor's next published state,
// with Err set if the audit failed.
func (a *auditor) audit(o offer) *Audited {
	next := *a.last.Load()
	seq := a.base + o.rec.Commits
	q1, q2, err := a.answers(o.view, o.release, seq)
	if err != nil {
		next.Err = fmt.Errorf("shard: audit at seq %d: %w", seq, err)
		return &next
	}
	next.Audits++
	next.Seq = seq
	for _, e := range a.served {
		want, count := q1, &next.Q1Disagreements
		if e.Query == "Q2" {
			want, count = q2, &next.Q2Disagreements
		}
		if got := o.rec.Results[e.Key]; got != want {
			if next.Q1Disagreements+next.Q2Disagreements == 0 {
				logf("shard: audit at seq %d: %s served %q, %s batch answers %q", seq, e.Key, got, e.Query, want)
			}
			*count++
		}
	}
	return &next
}

// answers reads view into the refs that build it, calls release, and
// returns Q1Batch's and Q2Batch's answers on them. It keeps only a copy
// of the view's Nodes, so the view's edge keys are garbage once read even
// if a removal has detached the State from them. The refs are not read
// past Q2Batch's load, nor Q1Batch past its answer, so neither is live
// while Q2Batch evaluates.
func (a *auditor) answers(view *model.View, release func(), seq int) (q1, q2 string, err error) {
	refs := view.Refs()
	release()
	nodes := *view.Nodes()
	if a.hook != nil {
		if err := a.hook(seq); err != nil {
			return "", "", err
		}
	}
	part := core.Part{Nodes: &nodes}
	if q1, err = batch(core.NewQ1Batch(), part, refs); err != nil {
		return "", "", err
	}
	if q2, err = batch(core.NewQ2Batch(), part, refs); err != nil {
		return "", "", err
	}
	return q1, q2, nil
}

// batch loads a fresh batch engine from refs and returns its answer.
func batch(e core.Engine, part core.Part, refs []model.Ref) (string, error) {
	if err := e.Attach(part, refs); err != nil {
		return "", fmt.Errorf("%s %s load: %w", e.Name(), e.Query(), err)
	}
	res, err := e.Initial()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", e.Name(), e.Query(), err)
	}
	return res.String(), nil
}

// close stops the auditor once a running audit ends.
func (a *auditor) close() {
	close(a.stop)
	<-a.done
}

// Audit offers the last commit to the auditor if it is idle and rested: a
// View of the State and the commit's Record. It never waits. A serving
// layer calls it once the commit is published, so an audit checks only
// answers readers can see. Must be called from the committing goroutine.
func (rt *Runtime) Audit() {
	if !rt.aud.idle.CompareAndSwap(true, false) {
		return
	}
	view, release := rt.st.View()
	rt.aud.offers <- offer{view: view, release: release, rec: rt.rec}
}

// Audited returns the auditor's state after its last audit. Safe to call
// from any goroutine.
func (rt *Runtime) Audited() *Audited { return rt.aud.last.Load() }
