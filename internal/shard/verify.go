package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// The verifier runs the lineup's verifying engine — the paper's Q2, which
// cross-checks the CC extension that serves Q2 — off the commit barrier,
// on a goroutine of its own. That goroutine also loads the engine: Start
// launches it once the served engines are ready and returns, so time to
// ready pays for the served engines only. It runs the engine's Attach and
// Initial on the refs that built the served Q2 engine, drops them, checks
// Start's evaluation against Start's Record, and then the commits handed
// to it. Until it has checked Start's evaluation, its published value is
// a placeholder before commit 0 (see Verified), so a wait for any commit
// waits for the load too. Commits handed over meanwhile queue behind the
// load, within verifyDepth like any other. Verify hands it each commit
// once the commit is published: the commit's Q2 refs, copied out of the
// router's reused stream, its position, the parked comments' top-3 and
// the served engine's merged answer then. The verifier applies the refs,
// merges the engine's answer with the parked top-3 and counts a
// disagreement where the result differs from the served answer of the
// same commit. It publishes each checked commit as one immutable Verified.
//
// The engine reads ids back through the State and the Q2 comment space,
// which the committing goroutine keeps appending to while the verifier
// trails it. So each hand-off also carries both as fixed prefixes
// (model.Nodes and a clamped copy of the space's header), and the
// verifier's engine reads them instead: nodes are never rewritten, so a
// prefix taken at the commit is exactly what the commit's refs need.

// verifyDepth is how many handed-over commits may wait for the verifier.
// It bounds two things: the verifier's lag, at most verifyDepth queued
// commits plus the one it is checking, and the memory queued for it, the
// hand-offs of those commits (each a copy of the commit's Q2 refs plus
// node and comment-space headers). The hand-off after the store of a
// commit blocks while verifyDepth commits wait, until the verifier takes
// one; from then on the committing goroutine runs at the verifier's pace.
// That happens whenever commits come faster than the paper's Q2 checks
// them, which removals make slow. Measured in process (1 shard, no WAL,
// back-to-back waited commits of 2–8 changes, 35% removals): 115–151 µs
// per commit at sf 32, against 22–24 µs with a queue that never blocks,
// and 505–605 µs at sf 128. Insert-only streams seldom block it: on them
// the paper's Q2 took 0.05–0.34 ms per commit at sf 32 and about 0.1 ms
// at sf 128, while perfbench's densest workload, ingest-sf128, commits
// every 1.3 ms or more.
const verifyDepth = 8

// Verified is the verifier's published state after one checked commit (or
// after Start's evaluation). It is never changed once published; later
// values follow it through At. Until the verifier has loaded, the newest
// value is a placeholder with Commits −1, whose Err is set if the load
// failed.
type Verified struct {
	// Commits counts the commits since Start the verifier has checked, and
	// Changes their changes; Commits is 0 once it has checked Start's
	// evaluation.
	Commits, Changes int
	// Result is the verifying engine's answer merged with the parked
	// comments of that commit ("id|id|id").
	Result string
	// Engine is the verifying engine's state sizes then.
	Engine core.EngineStats
	// Disagreements counts the checked commits, Start's evaluation
	// included, whose Result differed from the answer the verified engine
	// served for the same commit.
	Disagreements int
	// Published is when the verifier published this value.
	Published time.Time
	// Err is set when the verifier failed to check commit Commits+1; it
	// checks nothing after that. The other fields are those of commit
	// Commits.
	Err error

	next chan struct{} // closed once succ is set
	succ *Verified
}

// At returns the value of commit commits: v itself or one published after
// it, where v must not be past commits. With wait it blocks until the
// verifier has checked that commit or failed, which ends only for a
// commit handed over by Verify; without it returns the newest value
// published up to that commit. A failed value ends the walk.
func (v *Verified) At(commits int, wait bool) *Verified {
	for v.Commits < commits && v.Err == nil {
		if wait {
			<-v.next
		} else {
			select {
			case <-v.next:
			default:
				return v
			}
		}
		v = v.succ
	}
	return v
}

// handoff is one published commit on its way to the verifier.
type handoff struct {
	commits, changes int
	refs             []model.Ref
	nodes            model.Nodes
	comments         []int32
	parked           core.Result
	served           string
}

// verifier owns the verifying engine. Its goroutine alone touches the
// engine and the fields below cur once Start has returned.
type verifier struct {
	key, verifies string
	eng           core.Engine
	hook          func(commits int) error // Start's onVerify
	// part is what the engine reads ids through: nodes and space, which
	// the verifier sets from each hand-off before applying it.
	part  core.Part
	nodes model.Nodes
	space core.Space

	// queue holds the handed-over commits; free recycles their ref
	// buffers, one for each commit queued, being checked or being handed
	// over, so copying refs allocates only while the queue first fills.
	queue chan handoff
	free  chan []model.Ref
	done  chan struct{}
	cur   atomic.Pointer[Verified]

	res core.Result // the engine's last answer
	ans answer      // its merge with the parked comments, as of cur
}

func newVerifier(e harness.ServedEngine, st *model.State, r *router, hook func(commits int) error) *verifier {
	of := r.q2Comments.Of
	v := &verifier{
		key:      e.Key,
		verifies: e.Verifies,
		eng:      e.New(),
		hook:     hook,
		nodes:    st.Nodes(),
		space:    core.Space{Of: of[:len(of):len(of)]},
		queue:    make(chan handoff, verifyDepth),
		free:     make(chan []model.Ref, verifyDepth+2),
		done:     make(chan struct{}),
	}
	v.part = core.Part{Nodes: &v.nodes, Comments: &v.space}
	v.cur.Store(&Verified{Commits: -1, next: make(chan struct{})})
	return v
}

// start starts the verifier's goroutine on the refs that build its engine
// (the router's Q2 refs of Start), with Start's evaluation, as rt's first
// Record holds it, as the first commit to check.
func (v *verifier) start(rt *Runtime, refs []model.Ref) {
	go v.run(refs, handoff{parked: rt.parked, served: rt.rec.Results[v.verifies]})
}

// run loads the engine from refs and checks Start's evaluation, first,
// then every handed-over commit until the queue is closed. After a failed
// check it checks nothing more, but keeps taking hand-offs.
func (v *verifier) run(refs []model.Ref, first handoff) {
	defer close(v.done)
	err := v.load(refs) // nothing holds refs past load
	if err == nil {
		v.settle(&first)
	}
	failed := v.fail(&first, err)
	for h := range v.queue {
		if !failed {
			failed = v.fail(&h, v.check(&h))
		}
		select {
		case v.free <- h.refs[:0]:
		default:
		}
	}
}

// fail publishes err, if not nil, as the failed check of h's commit, on a
// copy of the newest value, and reports whether it did.
func (v *verifier) fail(h *handoff, err error) bool {
	if err == nil {
		return false
	}
	stop := *v.cur.Load()
	stop.Err = fmt.Errorf("shard: verify commit %d: %w", h.commits, err)
	stop.next, stop.succ = make(chan struct{}), nil
	v.publish(&stop)
	return true
}

// load runs the engine's start-up on refs: Attach, then Initial.
func (v *verifier) load(refs []model.Ref) error {
	if v.hook != nil {
		if err := v.hook(0); err != nil {
			return err
		}
	}
	if err := v.eng.Attach(v.part, refs); err != nil {
		return fmt.Errorf("%s load: %w", v.eng.Name(), err)
	}
	res, err := v.eng.Initial()
	if err != nil {
		return fmt.Errorf("%s initial: %w", v.eng.Name(), err)
	}
	v.res = res
	return nil
}

// check applies one handed-over commit and publishes its Verified.
func (v *verifier) check(h *handoff) error {
	if v.hook != nil {
		if err := v.hook(h.commits); err != nil {
			return err
		}
	}
	v.nodes, v.space.Of = h.nodes, h.comments
	if len(h.refs) > 0 {
		res, err := v.eng.UpdateRefs(h.refs)
		if err != nil {
			return fmt.Errorf("%s update: %w", v.eng.Name(), err)
		}
		v.res = res
	}
	v.settle(h)
	return nil
}

// settle merges the engine's answer with h's parked comments, compares the
// result with the served answer and publishes it.
func (v *verifier) settle(h *handoff) {
	v.ans.update(v.res, h.parked)
	next := &Verified{Commits: h.commits, Changes: h.changes, Result: v.ans.str, Published: time.Now(), next: make(chan struct{})}
	next.Engine = v.eng.Stats()
	next.Disagreements = v.cur.Load().Disagreements
	if next.Result != h.served {
		next.Disagreements++
	}
	v.publish(next)
}

// publish makes next the newest value and wakes the readers waiting on
// its predecessor.
func (v *verifier) publish(next *Verified) {
	prev := v.cur.Load()
	prev.succ = next
	v.cur.Store(next)
	close(prev.next)
}

// stop closes the queue and waits until the verifier has loaded and
// drained it.
func (v *verifier) stop() {
	close(v.queue)
	<-v.done
}

// Verify hands the last commit to the verifier, unless it has had it. A
// serving layer calls it once the commit is published, so the verifier
// never checks a commit readers cannot see; CommitRefs hands over a commit
// left pending first. It blocks while verifyDepth handed-over commits
// wait for the verifier. Must be called from the committing goroutine.
func (rt *Runtime) Verify() {
	if !rt.pending {
		return
	}
	rt.pending = false
	v := rt.ver
	var buf []model.Ref
	select {
	case buf = <-v.free:
	default:
	}
	of := rt.router.q2Comments.Of
	h := handoff{
		commits:  rt.commits,
		changes:  rt.changes,
		refs:     append(buf, rt.router.q2...),
		nodes:    rt.st.Nodes(),
		comments: of[:len(of):len(of)],
		parked:   rt.parked,
		served:   rt.rec.Results[v.verifies],
	}
	select {
	case v.queue <- h:
	default:
		start := time.Now()
		v.queue <- h
		rt.verifyBlocked += time.Since(start)
	}
}

// VerifyBlocked returns how long Verify has waited for room in the
// verifier's queue since Start, in total. Must be called from the
// committing goroutine, or once it has stopped committing.
func (rt *Runtime) VerifyBlocked() time.Duration { return rt.verifyBlocked }

// VerifyQueue returns how many handed-over commits wait for the verifier
// behind the one it is checking (or behind its load). Safe to call from
// any goroutine.
func (rt *Runtime) VerifyQueue() int { return len(rt.ver.queue) }

// Verified returns the newest value the verifier has published: the
// placeholder before commit 0 until it has loaded. Safe to call from any
// goroutine.
func (rt *Runtime) Verified() *Verified { return rt.ver.cur.Load() }

// Drain hands over a pending commit (see Verify), waits until the verifier
// has checked every commit handed to it or failed, and returns its value
// then. Must be called from the committing goroutine.
func (rt *Runtime) Drain() *Verified {
	rt.Verify()
	return rt.Verified().At(rt.commits, true)
}
