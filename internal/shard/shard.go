// Package shard runs the served incremental engines on N shards: N writer
// goroutines, each applying every committed change set to the warm engines
// it hosts. Every served engine runs whole on one shard: engine i of the
// served lineup runs on shard i mod N, so over two shards Q1 and the CC
// extension that serves Q2 apply each commit side by side, and shards
// beyond the lineup host nothing. Q1's answer is its engine's. The Q2
// engines hold every comment but the never-liked ones, which park at the
// router (see router.go) and score exactly 0, so the Q2 answer is the
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
// change set, fans it out to the writer goroutines of the shards whose
// engines it touches, and returns only after each has applied it — so a
// committed change set is visible in every engine at once and a serving
// layer's wait=1 keeps meaning "globally visible". The paper's Q2 engine is not served:
// it verifies the CC extension, which serves Q2, off the barrier (see
// verify.go). Verify hands it each commit once the commit is published,
// and it checks every commit on a goroutine of its own, at most
// verifyDepth commits behind.
//
// What the Runtime exposes is one immutable Record per commit (and one
// from New): the merged answers, the served engines' size totals, each
// shard's apply statistics and the parked-comment count, all as of that
// commit; and, from the verifier, one immutable Verified per verified
// commit. There is no live accessor beside them, so a layer that
// publishes the Record with its commit never serves figures of two
// different commits. Under the barrier a shard holds at most one queued
// command, and none between commits, so the Record carries no queue
// depths.
package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// Stats is one shard's apply statistics.
type Stats struct {
	// Commits counts commands the shard's writer has applied.
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
	// verifying engine's key maps to the answer of the engine it verifies,
	// which serves its query. A Record shares the previous Record's map
	// when no answer changed.
	Results map[string]string
	// Engines holds every served engine's state sizes, in lineup order.
	// Each served engine runs whole on one shard, so its sizes do not
	// depend on the shard count. The verifying engine's sizes are in its
	// Verified.
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

// engineInst is one warm engine, at its slot in the served lineup.
type engineInst struct {
	slot int
	eng  core.Engine
}

// command is one commit's work for a single shard.
type command struct {
	q1 []model.Ref // the commit's refs, applied to Q1-family engines
	q2 []model.Ref // the router's Q2 stream, applied to Q2-family engines
}

type response struct {
	shard   int
	err     error
	elapsed time.Duration
}

// worker owns the served engines placed on one shard. Only its goroutine
// touches them after startup.
type worker struct {
	id   int
	cmds chan command
	resp chan<- response
	done chan struct{}
	q1   []engineInst
	q2   []engineInst
	// results and stats are the runtime's tables of each served engine's
	// last answer and size, by slot. The worker writes its engines' slots
	// while it applies a command; the committing goroutine reads them once
	// the worker has answered.
	results []core.Result
	stats   []core.EngineStats
}

// Runtime is the sharded engine runtime over a model.State. Start loads
// the engines and starts one writer goroutine per shard and the
// verifier; CommitRefs routes and applies one change set the State has
// resolved, with a global barrier, and returns the merged Record, and
// Verify hands the commit to the verifier. Start and every commit build
// the Record on the committing goroutine, which alone may commit, verify,
// call Record and apply changes to the State; a Record itself is
// immutable and safe to share. The engines read ids back through the
// State, so its owner must not apply changes while a commit runs.
type Runtime struct {
	st      *model.State
	router  *router
	workers []*worker
	resp    chan response
	// served lists the engines every commit waits for; an engine's index
	// here is its slot in results and stats, and it runs on shard slot
	// mod n.
	served  []harness.ServedEngine
	results []core.Result
	stats   []core.EngineStats
	ver     *verifier

	// OnVerify, when set before the first commit, runs on the verifier
	// before it checks each commit, with the commit's count since Start;
	// an error it returns fails that check as an engine error would. It
	// is a test hook: it holds or fails the verifier.
	OnVerify func(commits int) error

	loadDur    time.Duration
	initialDur time.Duration

	// commits and changes count what has been committed since Start; meta
	// is each shard's apply statistics; answers and rendered are each
	// served engine's merged answer and its string as of the last commit;
	// parked is the parked comments' top-3 then; pending marks a commit
	// not yet handed to the verifier. rec is the Record of the last
	// commit. All are owned by the committing goroutine.
	commits, changes int
	meta             []Stats
	answers          []core.Result
	rendered         []string
	parked           core.Result
	pending          bool
	rec              *Record

	// merge is the reusable ranker the Q2 answers are folded through with
	// the parked comments — one commit-path merge per engine per commit, so
	// a fresh allocation each round is pure garbage.
	merge *core.Ranker

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
	return Start(n, st)
}

// Start places the served engines on n shards, loads and initially
// evaluates every engine on st, and starts the per-shard writers and the
// verifier. Start-up must read the whole graph, so each engine loads, and
// then initially evaluates, on its own goroutine; each phase ends at a
// barrier, so its duration is its wall time. On error no goroutine is
// left running.
func Start(n int, st *model.State) (*Runtime, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1 (got %d)", n)
	}
	refs := st.Refs()
	router, q2Refs := newRouter(st, refs)
	rt := &Runtime{
		st:      st,
		router:  router,
		workers: make([]*worker, n),
		resp:    make(chan response, n),
		meta:    make([]Stats, n),
		merge:   core.NewTopK(core.TopK),
	}
	// startJob is one engine's start-up: where it runs, its part of the
	// State and the refs that build it.
	type startJob struct {
		where string
		eng   core.Engine
		part  core.Part
		refs  []model.Ref
	}
	var jobs []startJob
	for _, e := range harness.ServedEngines() {
		if e.Verifies == "" {
			rt.served = append(rt.served, e)
		} else if rt.ver == nil && e.Query == "Q2" {
			rt.ver = newVerifier(e, st, router)
			jobs = append(jobs, startJob{"verifier", rt.ver.eng, rt.ver.part, q2Refs})
		}
	}
	if rt.ver == nil {
		return nil, fmt.Errorf("shard: the lineup has no verifying Q2 engine")
	}
	rt.results = make([]core.Result, len(rt.served))
	rt.stats = make([]core.EngineStats, len(rt.served))
	for s := range rt.workers {
		rt.workers[s] = &worker{
			id:      s,
			cmds:    make(chan command, 1),
			resp:    rt.resp,
			done:    make(chan struct{}),
			results: rt.results,
			stats:   rt.stats,
		}
	}
	for slot, e := range rt.served {
		w := rt.workers[slot%n]
		inst := engineInst{slot: slot, eng: e.New()}
		job := startJob{fmt.Sprintf("shard %d", w.id), inst.eng, core.Part{Nodes: st}, refs}
		if e.Query == "Q1" {
			w.q1 = append(w.q1, inst)
		} else {
			w.q2 = append(w.q2, inst)
			job.part.Comments, job.refs = router.q2Comments, q2Refs
		}
		jobs = append(jobs, job)
	}

	phase := func(name string, f func(j startJob) error) (time.Duration, error) {
		start := time.Now()
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for k := range jobs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				j := jobs[k]
				if err := f(j); err != nil {
					errs[k] = fmt.Errorf("%s: %s %s: %w", j.where, j.eng.Name(), name, err)
				}
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var err error
	if rt.loadDur, err = phase("load", func(j startJob) error { return j.eng.Attach(j.part, j.refs) }); err != nil {
		return nil, err
	}
	if rt.initialDur, err = phase("initial", func(j startJob) error {
		_, err := j.eng.Initial()
		return err
	}); err != nil {
		return nil, err
	}

	for _, w := range rt.workers {
		for _, engines := range [][]engineInst{w.q1, w.q2} {
			for _, e := range engines {
				if rs, ok := e.eng.(core.ResultSnapshotter); ok {
					w.results[e.slot], _ = rs.LastResult()
				}
			}
			w.sizes(engines)
		}
		go w.run()
	}
	rt.answers = make([]core.Result, len(rt.served))
	rt.rendered = make([]string, len(rt.served))
	rt.rec = rt.record()
	rt.ver.start(rt)
	return rt, nil
}

// sizes records engines' state sizes in the worker's table.
func (w *worker) sizes(engines []engineInst) {
	for _, e := range engines {
		if sr, ok := e.eng.(core.StatsReporter); ok {
			w.stats[e.slot] = sr.Stats()
		}
	}
}

func (w *worker) run() {
	defer close(w.done)
	for cmd := range w.cmds {
		start := time.Now()
		err := w.update(w.q1, cmd.q1)
		if err == nil {
			err = w.update(w.q2, cmd.q2)
		}
		w.resp <- response{shard: w.id, err: err, elapsed: time.Since(start)}
	}
}

// command returns the worker's work in one commit: the commit's refs if
// it hosts a Q1-family engine, and the router's Q2 stream q2 if it hosts a
// Q2-family engine.
func (w *worker) command(refs, q2 []model.Ref) command {
	var cmd command
	if len(w.q1) > 0 {
		cmd.q1 = refs
	}
	if len(w.q2) > 0 {
		cmd.q2 = q2
	}
	return cmd
}

// update applies one ref list to engines and records their answers and
// sizes; an empty list is a no-op. An engine's answer is immutable once
// returned (a new Result per update), so the committing goroutine may
// keep it.
func (w *worker) update(engines []engineInst, refs []model.Ref) error {
	if len(refs) == 0 {
		return nil
	}
	for _, e := range engines {
		res, err := e.eng.UpdateRefs(refs)
		if err != nil {
			return fmt.Errorf("shard %d: %s update: %w", w.id, e.eng.Name(), err)
		}
		w.results[e.slot] = res
	}
	w.sizes(engines)
	return nil
}

// Commit applies cs to the runtime's State, commits the resolved changes
// (see CommitRefs) and hands the commit to the verifier (see Verify). A
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
	rt.Verify()
	return rec, nil
}

// CommitRefs routes one change set the State has validated and resolved,
// fans it out to the writer goroutines, waits for every touched shard
// (the commit barrier), and returns the merged Record. The verifier sees
// the commit once Verify hands it over; a commit not yet handed over goes
// first. On error the runtime must be considered diverged: some engines
// may have applied the change set while another failed. Callers should
// stop committing (the serving layer turns this into its broken state).
func (rt *Runtime) CommitRefs(refs []model.Ref) (*Record, error) {
	rt.Verify()
	q2 := rt.router.route(refs)
	active := 0
	for _, w := range rt.workers {
		cmd := w.command(refs, q2)
		if len(cmd.q1) == 0 && len(cmd.q2) == 0 {
			continue
		}
		w.cmds <- cmd
		active++
	}
	var firstErr error
	for i := 0; i < active; i++ {
		resp := <-rt.resp
		if resp.err != nil {
			// A failed apply is not a commit: leave the shard's stats
			// untouched so they reflect only applied commands.
			if firstErr == nil {
				firstErr = resp.err
			}
			continue
		}
		m := &rt.meta[resp.shard]
		m.Commits++
		m.Last = resp.elapsed
		m.Total += resp.elapsed
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rt.commits++
	rt.changes += len(refs)
	rt.pending = true
	rt.rec = rt.record()
	return rt.rec, nil
}

// Record returns the Record of the last commit, or New's before the first.
// Must be called from the committing goroutine.
func (rt *Runtime) Record() *Record { return rt.rec }

// record builds a new Record from the engines' answers and sizes. A
// Q2-family answer is merged with the router's parked (likeless,
// zero-scoring) comments, a virtual partition. An answer whose ids did not
// change keeps its string, and when none changed the Record keeps the
// previous Record's map.
func (rt *Runtime) record() *Record {
	rt.parked = rt.router.parkedTopK()
	changed := rt.rec == nil
	for i, e := range rt.served {
		m := rt.results[i]
		if e.Query == "Q2" {
			rt.merge.Reset()
			for _, p := range rt.parked {
				rt.merge.Consider(p)
			}
			for _, p := range m {
				rt.merge.Consider(p)
			}
			m = rt.merge.Peek()
		}
		if rt.rec == nil || !m.SameIDs(rt.answers[i]) {
			rt.answers[i] = append(rt.answers[i][:0], m...)
			rt.rendered[i] = m.String()
			changed = true
		}
	}
	rec := &Record{
		Commits:        rt.commits,
		Engines:        make([]EngineTotals, len(rt.served)),
		Shards:         append([]Stats(nil), rt.meta...),
		ParkedComments: rt.router.parkedComments(),
	}
	if changed {
		rec.Results = make(map[string]string, len(rt.served)+1)
		for i, e := range rt.served {
			rec.Results[e.Key] = rt.rendered[i]
		}
		rec.Results[rt.ver.key] = rec.Results[rt.ver.verifies]
	} else {
		rec.Results = rt.rec.Results
	}
	for i, e := range rt.served {
		rec.Engines[i] = EngineTotals{Key: e.Key, EngineStats: rt.stats[i]}
	}
	return rec
}

// LoadDuration is the wall time of the load phase: every engine loading
// the State, each on its own goroutine.
func (rt *Runtime) LoadDuration() time.Duration { return rt.loadDur }

// InitialDuration is the wall time of the initial-evaluation phase, every
// engine on its own goroutine.
func (rt *Runtime) InitialDuration() time.Duration { return rt.initialDur }

// Close stops every shard writer and then the verifier, each after it
// drains its queue; a commit not yet handed to the verifier stays
// unverified. Idempotent.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		for _, w := range rt.workers {
			close(w.cmds)
		}
		for _, w := range rt.workers {
			<-w.done
		}
		rt.ver.stop()
	})
}
