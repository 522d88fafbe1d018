// Package shard runs the paper's incremental engines as an N-way sharded
// runtime, one writer goroutine per shard, each applying its slice of every
// committed change set to its own warm engine instances. Q1 is partitioned:
// each shard owns the posts that hash to it, with their comment subtrees.
// Q2 is not: its engines run on one home shard (see router.go), because a
// comment's score reads the friendship subgraph of its likers and the
// social graph has one giant friendship component. Every partition is
// closed under the edges its query reads, so every shard's top-3 answer is
// exact for the entities it owns, and the global top-3 is a subset of the
// union of the per-shard answers and the router's parked comments. Results
// recovers it by feeding those entries through one core.Ranker; no id
// repeats across partitions, so nothing needs deduplicating, and the
// sharded runtime is change-for-change indistinguishable from a single
// engine.
//
// Commits are barriers: Commit routes the change set, fans the per-shard
// work out to the writer goroutines, and returns the merged results only
// after every shard has applied its slice — so a committed change set is
// visible on all shards at once and a serving layer's wait=1 keeps meaning
// "globally visible".
package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// Stats is one shard's serving statistics.
type Stats struct {
	Shard int
	// Depth is the shard's queued-command count at observation time.
	Depth int
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
// change set with a global barrier; Results/Stats serve reads. Commit and
// Results/EngineTotals must be called from a single committing goroutine;
// ShardStats and ParkedComments are safe from any goroutine.
type Runtime struct {
	n       int
	router  *router
	workers []*worker

	loadDur    time.Duration
	initialDur time.Duration

	mu             sync.Mutex
	last           []map[string]core.Result
	lastStats      []map[string]core.EngineStats
	meta           []Stats
	parkedComments int

	// merge is the reusable ranker Results folds the per-shard answers
	// through — one commit-path merge per engine per commit, so a fresh
	// allocation each round is pure garbage. Owned by the committing
	// goroutine (the only caller of Results).
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
		n:              n,
		router:         router,
		workers:        make([]*worker, n),
		last:           make([]map[string]core.Result, n),
		lastStats:      make([]map[string]core.EngineStats, n),
		meta:           make([]Stats, n),
		parkedComments: router.parkedComments(),
		merge:          core.NewTopK(core.TopK),
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
		rt.meta[s].Shard = s
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
// barrier), and returns the merged global results. On error the runtime
// must be considered diverged: some shards may have applied their slice
// while another failed. Callers should stop committing (the serving layer
// turns this into its broken state).
func (rt *Runtime) Commit(cs *model.ChangeSet) (map[string]string, error) {
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
	rt.mu.Lock()
	rt.parkedComments = rt.router.parkedComments()
	rt.mu.Unlock()
	for i := 0; i < active; i++ {
		resp := <-respCh
		rt.mu.Lock()
		if resp.err != nil {
			// A failed apply is not a commit: leave the shard's stats
			// untouched so /stats reflects only applied commands.
			if firstErr == nil {
				firstErr = resp.err
			}
		} else {
			m := &rt.meta[resp.shard]
			m.Commits++
			m.Last = resp.elapsed
			m.Total += resp.elapsed
			rt.last[resp.shard] = resp.results
			rt.lastStats[resp.shard] = resp.stats
		}
		rt.mu.Unlock()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rt.Results(), nil
}

// Results merges the per-shard last-committed answers into the global
// top-3 per engine key. The Q2-family merge includes the router's parked
// (likeless, zero-scoring) comments as a virtual partition. Must be called
// from the committing goroutine (it reads router state).
func (rt *Runtime) Results() map[string]string {
	parked := rt.router.parkedTopK()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]string)
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
		out[e.Key] = rt.merge.Result().String()
	}
	return out
}

// EngineTotals merges every engine's state sizes across shards. Users are
// replicated into every Q1 partition, so they take the maximum, which
// counts distinct users; every other dimension sums. Q2 engines run on one
// shard, so their totals are that shard's.
func (rt *Runtime) EngineTotals() map[string]core.EngineStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]core.EngineStats)
	for s := 0; s < rt.n; s++ {
		for key, st := range rt.lastStats[s] {
			t := out[key]
			t.Posts += st.Posts
			t.Comments += st.Comments
			t.Users = max(t.Users, st.Users)
			t.NNZ += st.NNZ
			t.Pending += st.Pending
			out[key] = t
		}
	}
	return out
}

// ShardStats reports each shard's queue depth and apply latencies. Safe
// for concurrent use with Commit.
func (rt *Runtime) ShardStats() []Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]Stats, rt.n)
	copy(out, rt.meta)
	for s := range out {
		out[s].Depth = len(rt.workers[s].cmds)
	}
	return out
}

// ParkedComments reports how many never-liked comments the router currently
// holds outside the Q2 engines (they rank as a virtual partition; see
// internal/shard/router.go). Engine comment totals plus this count cover
// all comments. Safe for concurrent use with Commit.
func (rt *Runtime) ParkedComments() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.parkedComments
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
