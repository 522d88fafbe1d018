// Package shard runs the paper's incremental engines as an N-way sharded
// runtime, one writer goroutine per shard, each applying its slice of every
// committed change set to its own warm engine instances. Q1 is partitioned:
// each shard owns the posts that hash to it, with their comment subtrees.
// Q2 is not: its engines run on one home shard (see router.go), because a
// comment's score reads the friendship subgraph of its likers and the
// social graph has one giant friendship component. Every partition is
// closed under the edges its query reads, so every shard's top-3 answer is
// exact for the entities it owns, and the global top-3 is a subset of the
// union of the per-shard answers and the router's parked comments. Every
// commit recovers it by feeding those entries through one core.Ranker; no id
// repeats across partitions, so nothing needs deduplicating, and the
// sharded runtime is change-for-change indistinguishable from a single
// engine.
//
// Commits are barriers: Commit routes the change set, fans the per-shard
// work out to the writer goroutines, and returns only after every shard has
// applied its slice — so a committed change set is visible on all shards
// at once and a serving layer's wait=1 keeps meaning "globally visible".
//
// What the Runtime exposes is one immutable Record per commit (and one
// from New): the merged answers, the engine size totals, each shard's
// apply statistics and the parked-comment count, all as of that commit.
// There is no live accessor beside it, so a layer that publishes the
// Record with its commit never serves figures of two different commits.
// Under the barrier a shard holds at most one queued command, and none
// between commits, so the Record carries no queue depths.
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
	// Results maps engine key to the merged global top-3 ("id|id|id").
	Results map[string]string
	// Engines sums every engine's state sizes across shards. Users are
	// replicated into every Q1 partition, so they take the maximum, which
	// counts distinct users; every other dimension sums. Q2 engines run on
	// one shard, so their totals are that shard's.
	Engines map[string]core.EngineStats
	// Shards holds each shard's apply statistics, indexed by shard.
	Shards []Stats
	// ParkedComments counts the never-liked comments the router holds
	// outside the Q2 engines (they rank as a virtual partition; see
	// router.go). Q2 engine comments plus this count cover all comments.
	ParkedComments int
}

// engineInst is one warm engine on one shard.
type engineInst struct {
	key string
	sol core.Solution
}

// command is one commit's slice of work for a single shard.
type command struct {
	q1   []model.Change // post-routed stream, applied to Q1-family engines
	q2   []model.Change // the home shard's stream, applied to Q2-family engines
	resp chan<- response
}

type response struct {
	shard   int
	err     error
	results map[string]core.Result
	stats   map[string]core.EngineStats
	elapsed time.Duration
}

// worker owns one shard's engines: its Q1 partition's, and on the home
// shard the Q2 engines. Only its goroutine touches them after startup.
type worker struct {
	id   int
	cmds chan command
	done chan struct{}
	q1   []engineInst
	q2   []engineInst
}

// Runtime is the sharded engine runtime. New loads the partitions and
// starts one writer goroutine per shard; Commit routes and applies one
// change set with a global barrier and returns the merged Record. New and
// Commit build every Record on the committing goroutine, which alone may
// call Commit and Record; a Record itself is immutable and safe to share.
type Runtime struct {
	n       int
	router  *router
	workers []*worker

	loadDur    time.Duration
	initialDur time.Duration

	// last, lastStats and meta are each shard's last committed answers,
	// engine sizes and apply statistics; rec is the Record merged from
	// them. All are owned by the committing goroutine.
	last      []map[string]core.Result
	lastStats []map[string]core.EngineStats
	meta      []Stats
	rec       *Record

	// merge is the reusable ranker the per-shard answers are folded
	// through — one commit-path merge per engine per commit, so a fresh
	// allocation each round is pure garbage.
	merge *core.Ranker

	closeOnce sync.Once
}

// New partitions the snapshot over n shards, loads and initially evaluates
// every engine instance, and starts the per-shard writers. Start-up must
// read the whole graph, so each instance loads, and then initially
// evaluates, on its own goroutine; each phase ends at a barrier, so its
// duration is its wall time. A panic in an engine during either phase
// becomes an error: a snapshot the caller has not validated yet may break
// an engine's assumptions. On error no goroutine is left running.
func New(n int, snap *model.Snapshot) (*Runtime, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1 (got %d)", n)
	}
	if snap == nil {
		return nil, fmt.Errorf("shard: nil snapshot")
	}
	router, err := newRouter(n, snap)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		n:         n,
		router:    router,
		workers:   make([]*worker, n),
		last:      make([]map[string]core.Result, n),
		lastStats: make([]map[string]core.EngineStats, n),
		meta:      make([]Stats, n),
		merge:     core.NewTopK(core.TopK),
	}
	// startJob is one engine instance's start-up; partitions are cut on
	// first use, on the goroutine of the first instance that loads them.
	type startJob struct {
		shard int
		e     engineInst
		snap  func() *model.Snapshot
	}
	var jobs []startJob
	q2Snap := sync.OnceValue(func() *model.Snapshot { return router.q2Snapshot(snap) })
	for s := 0; s < n; s++ {
		s := s
		q1Snap := sync.OnceValue(func() *model.Snapshot { return router.q1Snapshot(snap, s) })
		w := &worker{id: s, cmds: make(chan command, 1), done: make(chan struct{})}
		for _, e := range harness.ServedEngines() {
			inst := engineInst{key: e.Key, sol: e.New()}
			switch {
			case e.Query == "Q1":
				w.q1 = append(w.q1, inst)
				jobs = append(jobs, startJob{s, inst, q1Snap})
			case s == q2Shard:
				w.q2 = append(w.q2, inst)
				jobs = append(jobs, startJob{s, inst, q2Snap})
			}
		}
		rt.workers[s] = w
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
				defer func() {
					if p := recover(); p != nil {
						errs[k] = fmt.Errorf("shard %d: %s %s: panic: %v", j.shard, j.e.sol.Name(), name, p)
					}
				}()
				if err := f(j); err != nil {
					errs[k] = fmt.Errorf("shard %d: %s %s: %w", j.shard, j.e.sol.Name(), name, err)
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
	if rt.loadDur, err = phase("load", func(j startJob) error { return j.e.sol.Load(j.snap()) }); err != nil {
		return nil, err
	}
	if rt.initialDur, err = phase("initial", func(j startJob) error {
		_, err := j.e.sol.Initial()
		return err
	}); err != nil {
		return nil, err
	}

	for s := 0; s < n; s++ {
		rt.last[s], rt.lastStats[s] = rt.workers[s].observe()
		go rt.workers[s].run()
	}
	rt.rec = rt.record()
	return rt, nil
}

func (w *worker) engines() []engineInst {
	out := make([]engineInst, 0, len(w.q1)+len(w.q2))
	out = append(out, w.q1...)
	return append(out, w.q2...)
}

// observe captures every engine's last committed answer and state size.
func (w *worker) observe() (map[string]core.Result, map[string]core.EngineStats) {
	results := make(map[string]core.Result)
	stats := make(map[string]core.EngineStats)
	for _, e := range w.engines() {
		if rs, ok := e.sol.(core.ResultSnapshotter); ok {
			if res, ok := rs.LastResult(); ok {
				results[e.key] = res
			}
		}
		if sr, ok := e.sol.(core.StatsReporter); ok {
			stats[e.key] = sr.Stats()
		}
	}
	return results, stats
}

func (w *worker) run() {
	defer close(w.done)
	for cmd := range w.cmds {
		start := time.Now()
		resp := response{shard: w.id}
		resp.err = w.apply(cmd)
		if resp.err == nil {
			resp.results, resp.stats = w.observe()
		}
		resp.elapsed = time.Since(start)
		cmd.resp <- resp
	}
}

// apply runs one command: the Q1 stream, then the Q2 stream.
func (w *worker) apply(cmd command) error {
	if err := w.update(w.q1, cmd.q1); err != nil {
		return err
	}
	return w.update(w.q2, cmd.q2)
}

// update applies one change list to engines; an empty list is a no-op.
func (w *worker) update(engines []engineInst, changes []model.Change) error {
	if len(changes) == 0 {
		return nil
	}
	cs := &model.ChangeSet{Changes: changes}
	for _, e := range engines {
		if _, err := e.sol.Update(cs); err != nil {
			return fmt.Errorf("shard %d: %s update: %w", w.id, e.sol.Name(), err)
		}
	}
	return nil
}

// Commit routes one validated change set, fans the per-shard slices out to
// the writer goroutines, waits for every touched shard (the commit
// barrier), and returns the merged Record. On error the runtime must be
// considered diverged: some shards may have applied their slice while
// another failed. Callers should stop committing (the serving layer turns
// this into its broken state).
func (rt *Runtime) Commit(cs *model.ChangeSet) (*Record, error) {
	p, err := rt.router.route(cs)
	if err != nil {
		return nil, err
	}
	respCh := make(chan response, rt.n)
	active := 0
	for s := 0; s < rt.n; s++ {
		cmd := command{q1: p.q1[s], resp: respCh}
		if s == q2Shard {
			cmd.q2 = p.q2
		}
		if len(cmd.q1) == 0 && len(cmd.q2) == 0 {
			continue
		}
		rt.workers[s].cmds <- cmd
		active++
	}
	var firstErr error
	for i := 0; i < active; i++ {
		resp := <-respCh
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
		rt.last[resp.shard] = resp.results
		rt.lastStats[resp.shard] = resp.stats
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rt.rec = rt.record()
	return rt.rec, nil
}

// Record returns the Record of the last commit, or New's before the first.
// Must be called from the committing goroutine.
func (rt *Runtime) Record() *Record { return rt.rec }

// record merges the per-shard state into a new Record. The Q2-family merge
// includes the router's parked (likeless, zero-scoring) comments as a
// virtual partition.
func (rt *Runtime) record() *Record {
	parked := rt.router.parkedTopK()
	rec := &Record{
		Results:        make(map[string]string),
		Engines:        make(map[string]core.EngineStats),
		Shards:         append([]Stats(nil), rt.meta...),
		ParkedComments: rt.router.parkedComments(),
	}
	for _, e := range harness.ServedEngines() {
		rt.merge.Reset()
		if e.Query == "Q2" {
			for _, p := range parked {
				rt.merge.Consider(p)
			}
		}
		for s := 0; s < rt.n; s++ {
			for _, p := range rt.last[s][e.Key] {
				rt.merge.Consider(p)
			}
		}
		rec.Results[e.Key] = rt.merge.Result().String()
	}
	for s := 0; s < rt.n; s++ {
		for key, st := range rt.lastStats[s] {
			t := rec.Engines[key]
			t.Posts += st.Posts
			t.Comments += st.Comments
			t.Users = max(t.Users, st.Users)
			t.NNZ += st.NNZ
			t.Pending += st.Pending
			rec.Engines[key] = t
		}
	}
	return rec
}

// LoadDuration is the wall time of the load phase: every engine instance
// loading its partition, each on its own goroutine.
func (rt *Runtime) LoadDuration() time.Duration { return rt.loadDur }

// InitialDuration is the wall time of the initial-evaluation phase, every
// engine instance on its own goroutine.
func (rt *Runtime) InitialDuration() time.Duration { return rt.initialDur }

// Close stops every shard writer after it drains its queue. Idempotent.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		for _, w := range rt.workers {
			close(w.cmds)
		}
		for _, w := range rt.workers {
			<-w.done
		}
	})
}
