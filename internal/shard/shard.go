// Package shard runs the served incremental engines on N shards. A shard
// is a lane of the commit: every served engine runs whole on one shard,
// engine i of the served lineup on shard i mod N, so over two shards Q1
// and the CC extension that serves Q2 apply each commit side by side, and
// shards beyond the lineup host nothing. Q1's answer is its engine's. The
// Q2 engines hold every comment but the never-liked ones, which park at
// the router (see router.go) and score exactly 0, so the Q2 answer is the
// engine's top-3 merged with the parked comments' through one core.Ranker.
// The runtime therefore answers exactly as one engine per query would,
// whatever the shard count.
//
// The runtime runs on a model.State, the one id → index map: Start loads
// the engines from the State's resolved contents, and every commit hands
// them the changes the State has already validated and resolved
// (model.Ref), so neither the router nor an engine resolves an id or
// rejects a change. The Q2 engines number their comments compactly; the
// router assigns those local indices and records them (core.Space). Ids
// and timestamps are read back through the State. New and Commit are
// adapters that resolve through a State of the runtime's own.
//
// Commits are barriers over the served engines: CommitRefs routes the
// change set, applies shard 0's engines on the committing goroutine and
// every other hosting shard's on a goroutine started for the commit, and
// returns only once each has applied it — so a committed change set is
// visible in every engine at once and a serving layer's wait=1 keeps
// meaning "globally visible". Off the commit path, an audit checks the
// served answers against the batch engines (see audit.go): Audit offers
// it each published commit, and it takes one whenever it is idle and
// rested. The auditor's is the only goroutine that outlives a call.
//
// What the Runtime exposes is one immutable Record per commit (and one
// from New): the merged answers, the served engines' size totals, each
// shard's apply statistics and the parked-comment count, all as of that
// commit; and, from the auditor, one immutable Audited per audit. There
// is no live accessor beside them, so a layer that publishes the Record
// with its commit never serves figures of two different commits.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// Stats is one shard's apply statistics.
type Stats struct {
	// Commits counts the commits in which the shard's engines had work
	// and applied it.
	Commits int
	// Last and Total aggregate the shard's apply latencies.
	Last  time.Duration
	Total time.Duration
}

// Mean is the shard's mean apply latency.
func (s Stats) Mean() time.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Commits)
}

// Record is the runtime's merged view as of one commit (or of New): what a
// serving layer publishes with the commit, so every figure in it belongs to
// the same commit. It is built on the committing goroutine and never
// changed afterwards.
type Record struct {
	// Commits counts the commits since Start this Record follows: 0 for
	// Start's own.
	Commits int
	// Results maps engine key to the merged global top-3 ("id|id|id"). A
	// verifying engine's key (harness.ServedEngine.Verifies), whose engine
	// the runtime does not run, maps to the answer of the engine it names,
	// which serves its query. A Record shares the previous Record's map
	// when no answer changed.
	Results map[string]string
	// Engines holds every served engine's state sizes, in lineup order.
	// Each served engine runs whole on one shard, so its sizes do not
	// depend on the shard count.
	Engines []EngineTotals
	// Shards holds each shard's apply statistics, indexed by shard.
	Shards []Stats
	// ParkedComments counts the never-liked comments the router holds
	// outside the Q2 engines (they rank as a virtual partition; see
	// router.go). Q2 engine comments plus this count cover all comments.
	ParkedComments int
}

// EngineTotals is one served engine's state sizes.
type EngineTotals struct {
	Key string
	core.EngineStats
}

// served is one served engine, at its slot in the lineup, and everything
// the runtime keeps of it. res and stats are written by the goroutine that
// applies the engine's shard, which alone touches eng during a commit;
// the committing goroutine reads them once the commit's applies are
// joined.
type served struct {
	harness.ServedEngine
	eng   core.Engine
	shard int
	res   core.Result      // its last answer
	stats core.EngineStats // its sizes then
	ans   answer           // res merged with the parked comments
}

// stream returns what the engine applies of one commit: the commit's refs
// for a Q1-family engine, the router's Q2 stream q2 for a Q2-family one.
func (e *served) stream(refs, q2 []model.Ref) []model.Ref {
	if e.Query == "Q2" {
		return q2
	}
	return refs
}

// sizes records the engine's state sizes.
func (e *served) sizes() {
	e.stats = e.eng.Stats()
}

// answer is an engine's answer merged with the parked (likeless,
// zero-scoring) comments, a virtual partition, and its string. It is the
// one parked-merge rule: the runtime keeps one per served engine (a
// Q1-family engine merges no parked comment).
type answer struct {
	merge *core.Ranker // reused: one merge per engine per commit
	ids   core.Result
	str   string
	set   bool // ids and str hold a merge
}

// update merges res with parked and reports whether the merged ids
// changed; only then is the string rendered anew.
func (a *answer) update(res, parked core.Result) bool {
	if a.merge == nil {
		a.merge = core.NewTopK(core.TopK)
	}
	a.merge.Reset()
	for _, p := range parked {
		a.merge.Consider(p)
	}
	for _, p := range res {
		a.merge.Consider(p)
	}
	m := a.merge.Peek()
	if a.set && m.SameIDs(a.ids) {
		return false
	}
	a.ids, a.str, a.set = append(a.ids[:0], m...), m.String(), true
	return true
}

// lane is one shard: its apply statistics and the error of its apply in
// the running commit, which the goroutine applying the shard writes and
// the committing goroutine reads once the applies are joined.
type lane struct {
	Stats
	err error
}

// Runtime is the sharded engine runtime over a model.State. Start loads
// the served engines and starts the auditor; CommitRefs routes and
// applies one change set the State has resolved, with a global barrier,
// and returns the merged Record, and Audit offers the commit to the
// auditor. Start and every commit build the Record on the committing
// goroutine, which alone may commit, audit, call Record and apply changes
// to the State; a Record itself is immutable and safe to share. The
// engines read ids back through the State, so its owner must not apply
// changes while a commit runs.
type Runtime struct {
	st     *model.State
	router *router
	// engines lists the engines every commit waits for, in lineup order;
	// engine i runs on shard i mod len(lanes).
	engines []served
	lanes   []lane
	// aliases are the lineup's verifying engines, which the runtime does
	// not run: each Record maps their keys to the answers they name.
	aliases []harness.ServedEngine
	aud     *auditor

	loadDur    time.Duration
	initialDur time.Duration

	// applies joins the applies of the shards past 0 in a commit. commits
	// and changes count what has been committed since Start; parked is the
	// parked comments' top-3 as of the last commit; rec is the Record of
	// the last commit. All but applies are owned by the committing
	// goroutine.
	applies          sync.WaitGroup
	commits, changes int
	parked           core.Result
	rec              *Record

	closeOnce sync.Once
}

// New validates snap into a model.State of the runtime's own and starts
// the runtime on it (see Start). The error of an invalid snapshot wraps
// model.ErrIntegrity.
func New(n int, snap *model.Snapshot) (*Runtime, error) {
	if snap == nil {
		return nil, fmt.Errorf("shard: nil snapshot")
	}
	st, err := model.NewState(snap)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return Start(n, st, 0, nil)
}

// Start places the served engines on n shards, loads and initially
// evaluates each of them on st, and starts the auditor. Start-up must
// read the whole graph, so each served engine loads and then initially
// evaluates on its own goroutine, with no barrier between the two: q1's
// starts as soon as st's refs are built, while the calling goroutine
// builds the router, and a Q2 engine's waits only for the router, whose
// stream it loads. LoadDuration and InitialDuration are the slowest
// engine's load (its wait for the router included) and the slowest
// initial evaluation. Start then collects once, so the server starts
// under a heap goal of twice the served state, not twice start-up's peak.
// It then starts the auditor and offers it Start's state, and returns
// without waiting for that audit. On error Start returns the first failing
// engine's error, in lineup order, once every engine's goroutine has
// ended, so no goroutine is left running.
//
// base is st's seq: the auditor labels each state it checks with base
// plus the commits since Start. onAudit, when not nil, runs on the auditor
// at the start of each audit, with the seq it checks, and the auditor
// then does not rest between audits. An error it returns fails that audit
// as an engine error would. It is a test hook: it holds, fails or paces
// the audits.
func Start(n int, st *model.State, base int, onAudit func(seq int) error) (*Runtime, error) {
	return start(n, st, base, harness.ServedEngines(), onAudit)
}

// start is Start with the engine lineup as a parameter.
func start(n int, st *model.State, base int, lineup []harness.ServedEngine, onAudit func(seq int) error) (*Runtime, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1 (got %d)", n)
	}
	rt := &Runtime{st: st, lanes: make([]lane, n)}
	var audited []harness.ServedEngine
	for _, e := range lineup {
		if e.Verifies != "" {
			rt.aliases = append(rt.aliases, e)
			continue
		}
		slot := len(rt.engines)
		rt.engines = append(rt.engines, served{ServedEngine: e, eng: e.New(), shard: slot % n})
		audited = append(audited, e)
	}

	view, release := st.View()
	refs := view.Refs()
	release()
	begin := time.Now()
	var q2Refs []model.Ref
	routed := make(chan struct{}) // closed once rt.router and q2Refs are set
	errs := make([]error, len(rt.engines))
	loads := make([]time.Duration, len(rt.engines))
	initials := make([]time.Duration, len(rt.engines))
	var wg sync.WaitGroup
	for k := range rt.engines {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e := &rt.engines[k]
			part, stream := core.Part{Nodes: st}, refs
			if e.Query == "Q2" {
				<-routed
				part.Comments, stream = rt.router.q2Comments, q2Refs
			}
			phase, err := "load", e.eng.Attach(part, stream)
			loads[k] = time.Since(begin)
			if err == nil {
				t := time.Now()
				phase = "initial"
				e.res, err = e.eng.Initial()
				initials[k] = time.Since(t)
			}
			if err != nil {
				errs[k] = fmt.Errorf("shard %d: %s %s: %w", e.shard, e.eng.Name(), phase, err)
				return
			}
			e.sizes()
		}(k)
	}
	rt.router, q2Refs = newRouter(st, refs)
	close(routed)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k := range rt.engines {
		rt.loadDur, rt.initialDur = max(rt.loadDur, loads[k]), max(rt.initialDur, initials[k])
	}
	rt.rec = rt.record()
	// The last collection ran while the served engines loaded, and the
	// pacer sets the next heap goal to twice what a collection leaves. One
	// collection now, with the refs that built them garbage, sets it to
	// twice the served state instead, before the server serves.
	runtime.GC()
	rt.aud = newAuditor(base, audited, onAudit)
	rt.Audit()
	return rt, nil
}

// apply applies one commit — its resolved refs and the router's Q2
// stream q2 — to the engines shard s hosts and writes the outcome to the
// shard's lane: its error, or a counted commit if an engine had work (an
// engine whose stream is empty applies nothing). A failed apply is not a
// commit, so the shard's stats reflect only applied work. An engine never
// changes an answer once returned, so the committing goroutine may keep
// it.
func (rt *Runtime) apply(s int, refs, q2 []model.Ref) {
	l := &rt.lanes[s]
	l.err = nil
	start := time.Now()
	applied := false
	for i := range rt.engines {
		e := &rt.engines[i]
		stream := e.stream(refs, q2)
		if e.shard != s || len(stream) == 0 {
			continue
		}
		res, err := e.eng.UpdateRefs(stream)
		if err != nil {
			l.err = fmt.Errorf("shard %d: %s update: %w", s, e.eng.Name(), err)
			return
		}
		e.res = res
		e.sizes()
		applied = true
	}
	if applied {
		l.Commits++
		l.Last = time.Since(start)
		l.Total += l.Last
	}
}

// applyJoined is apply on a goroutine started for the commit, joined by
// applies.
func (rt *Runtime) applyJoined(s int, refs, q2 []model.Ref) {
	defer rt.applies.Done()
	rt.apply(s, refs, q2)
}

// Commit applies cs to the runtime's State, commits the resolved changes
// (see CommitRefs) and offers the commit to the auditor (see Audit). A
// change set the State rejects changes nothing, and its error wraps
// model.ErrIntegrity.
func (rt *Runtime) Commit(cs *model.ChangeSet) (*Record, error) {
	refs, err := rt.st.Apply(cs.Changes)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	rec, err := rt.CommitRefs(refs)
	if err != nil {
		return nil, err
	}
	rt.Audit()
	return rec, nil
}

// CommitRefs routes one change set the State has validated and resolved,
// applies it to the served engines and returns the merged Record. Shard
// 0's engines apply on the committing goroutine, and every other hosting
// shard's on a goroutine started for the commit; CommitRefs returns only
// once each has applied (the commit barrier). On error the runtime must
// be considered diverged: some engines may have applied the change set
// while another failed. Callers should stop committing (the serving layer
// turns this into its broken state).
func (rt *Runtime) CommitRefs(refs []model.Ref) (*Record, error) {
	q2 := rt.router.route(refs)
	// Shards beyond the lineup host nothing.
	hosting := min(len(rt.lanes), len(rt.engines))
	rt.applies.Add(hosting - 1)
	for s := 1; s < hosting; s++ {
		go rt.applyJoined(s, refs, q2)
	}
	rt.apply(0, refs, q2)
	rt.applies.Wait()
	for s := range rt.lanes {
		if err := rt.lanes[s].err; err != nil {
			return nil, err
		}
	}
	rt.commits++
	rt.changes += len(refs)
	rt.rec = rt.record()
	return rt.rec, nil
}

// Record returns the Record of the last commit, or New's before the first.
// Must be called from the committing goroutine.
func (rt *Runtime) Record() *Record { return rt.rec }

// record builds a new Record from the engines' answers and sizes. A
// Q2-family answer is merged with the router's parked comments (see
// answer). An answer whose ids did not change keeps its string, and when
// none changed the Record keeps the previous Record's map.
func (rt *Runtime) record() *Record {
	rt.parked = rt.router.parkedTopK()
	changed := rt.rec == nil
	rec := &Record{
		Commits:        rt.commits,
		Engines:        make([]EngineTotals, len(rt.engines)),
		Shards:         make([]Stats, len(rt.lanes)),
		ParkedComments: rt.router.parkedComments(),
	}
	for i := range rt.engines {
		e := &rt.engines[i]
		var parked core.Result
		if e.Query == "Q2" {
			parked = rt.parked
		}
		if e.ans.update(e.res, parked) {
			changed = true
		}
		rec.Engines[i] = EngineTotals{Key: e.Key, EngineStats: e.stats}
	}
	for s := range rt.lanes {
		rec.Shards[s] = rt.lanes[s].Stats
	}
	if changed {
		rec.Results = make(map[string]string, len(rt.engines)+len(rt.aliases))
		for i := range rt.engines {
			rec.Results[rt.engines[i].Key] = rt.engines[i].ans.str
		}
		for _, a := range rt.aliases {
			rec.Results[a.Key] = rec.Results[a.Verifies]
		}
	} else {
		rec.Results = rt.rec.Results
	}
	return rec
}

// LoadDuration is the slowest served engine's load in Start, from the
// moment the State's refs are built until its Attach returns: a Q2
// engine's wait for the router is part of it.
func (rt *Runtime) LoadDuration() time.Duration { return rt.loadDur }

// InitialDuration is the slowest served engine's initial evaluation in
// Start.
func (rt *Runtime) InitialDuration() time.Duration { return rt.initialDur }

// Close stops the auditor once a running audit ends. Idempotent.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(rt.aud.close)
}
