package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grb"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// batchPrefix is how many commits the batch engines replay for the Fig. 5
// reference: each batch update recomputes the whole query, so a prefix is
// enough for a per-commit figure.
const batchPrefix = 5

// readHandlerCalls is how many in-process query handler calls are timed.
const readHandlerCalls = 30000

// span is one timed call into a layer. Parent names the layer above it on
// the commit path; spans of one commit share its index (-1: not a commit).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Commit int    `json:"commit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trace holds the spans of one traced run in memory, plus the durations
// of each span name in commit order.
type trace struct {
	origin  time.Time
	spans   []span
	dur     map[string]series
	changes []int // per commit

	// wal counters from the traced log (used when the workload's server is
	// not durable, so /stats has none).
	walAppends, walBytes, walFsyncs int64
	readHandler                     series
}

func (t *trace) record(name, parent string, commit int, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Commit: commit,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	t.dur[name] = append(t.dur[name], end.Sub(start).Nanoseconds())
	if err != nil {
		return fmt.Errorf("%s (commit %d): %w", name, commit, err)
	}
	return nil
}

func (t *trace) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLayers replays the workload's commits — the stream grouped the way
// the server batches it — through each layer's public entry point, each on
// a fresh instance, recording one span per call.
func traceLayers(w workload, in *inputs, dir string) (*trace, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	groups := groupCommits(in.sets, w.commitMin())
	t := &trace{origin: time.Now(), dur: map[string]series{}}
	for i := range groups {
		t.changes = append(t.changes, len(groups[i].Changes))
	}
	final, err := traceModel(t, in.initial, groups)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return traceGrb(t, in.initial, groups) },
		func() error { return traceCore(t, in.initial, groups) },
		func() error { return traceWAL(t, groups, final, dir) },
		func() error { return traceShard(t, w, in.initial, groups) },
		func() error { return traceServer(t, w, in.initial, groups, dir) },
	}
	for _, step := range steps {
		// Start each layer from a collected heap, so garbage left by the
		// previous one is not charged to it.
		runtime.GC()
		if err := step(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func cloneSet(cs *model.ChangeSet) *model.ChangeSet {
	return &model.ChangeSet{Changes: append([]model.Change(nil), cs.Changes...)}
}

// traceModel times model.Snapshot.Apply per commit and returns the final
// model state.
func traceModel(t *trace, initial *model.Snapshot, groups []model.ChangeSet) (*model.Snapshot, error) {
	snap := initial.Clone()
	for i := range groups {
		cs := cloneSet(&groups[i])
		if err := t.record("model.apply", "server.enqueue", i, func() error { snap.Apply(cs); return nil }); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// traceGrb times the CSR assembly (Matrix.Wait) of each commit's pending
// like tuples on a users × comments matrix holding the workload's likes.
func traceGrb(t *trace, initial *model.Snapshot, groups []model.ChangeSet) error {
	users, comments := model.NewIDMap(), model.NewIDMap()
	for _, u := range initial.Users {
		users.Add(u.ID)
	}
	for _, c := range initial.Comments {
		comments.Add(c.ID)
	}
	for i := range groups {
		for _, ch := range groups[i].Changes {
			switch ch.Kind {
			case model.KindAddUser:
				users.Add(ch.User.ID)
			case model.KindAddComment:
				comments.Add(ch.Comment.ID)
			}
		}
	}
	likes := grb.NewMatrix[bool](users.Len(), comments.Len())
	for _, l := range initial.Likes {
		if err := likes.SetElement(users.MustIndex(l.UserID), comments.MustIndex(l.CommentID), true); err != nil {
			return err
		}
	}
	likes.Wait()
	for i := range groups {
		for _, ch := range groups[i].Changes {
			var err error
			switch ch.Kind {
			case model.KindAddLike:
				err = likes.SetElement(users.MustIndex(ch.Like.UserID), comments.MustIndex(ch.Like.CommentID), true)
			case model.KindRemoveLike:
				err = likes.RemoveElement(users.MustIndex(ch.Like.UserID), comments.MustIndex(ch.Like.CommentID))
			}
			if err != nil {
				return err
			}
		}
		if err := t.record("grb.assemble", "core.stats.q1", i, func() error { likes.Wait(); return nil }); err != nil {
			return err
		}
	}
	return nil
}

// traceCore times each served engine's Update and the Stats call the
// shard's observe makes after it, then the batch engines' Update on a
// prefix of the commits (the Fig. 5 reference). Q2 engines see the stream
// the way a one-shard runtime feeds them (see q2View).
func traceCore(t *trace, initial *model.Snapshot, groups []model.ChangeSet) error {
	q2Initial, q2Groups := q2View(initial, groups)
	input := func(query string) (*model.Snapshot, []model.ChangeSet) {
		if query == "Q2" {
			return q2Initial, q2Groups
		}
		return initial, groups
	}
	for _, e := range harness.ServedEngines() {
		snap, commits := input(e.Query)
		sol := e.New()
		if err := sol.Load(snap.Clone()); err != nil {
			return err
		}
		if _, err := sol.Initial(); err != nil {
			return err
		}
		sr, ok := sol.(core.StatsReporter)
		if !ok {
			return fmt.Errorf("engine %s reports no stats", e.Key)
		}
		for i := range commits {
			cs := cloneSet(&commits[i])
			if err := t.record("core.update."+e.Key, "shard.commit", i, func() error {
				_, err := sol.Update(cs)
				return err
			}); err != nil {
				return err
			}
			if err := t.record("core.stats."+e.Key, "shard.commit", i, func() error { sr.Stats(); return nil }); err != nil {
				return err
			}
		}
	}
	for _, b := range []struct {
		key string
		sol core.Solution
	}{{"q1", core.NewQ1Batch()}, {"q2", core.NewQ2Batch()}} {
		snap, commits := input(b.sol.Query())
		if err := b.sol.Load(snap.Clone()); err != nil {
			return err
		}
		if _, err := b.sol.Initial(); err != nil {
			return err
		}
		for i := 0; i < batchPrefix && i < len(commits); i++ {
			cs := cloneSet(&commits[i])
			if err := t.record("core.batch_update."+b.key, "", i, func() error {
				_, err := b.sol.Update(cs)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// q2View is what the Q2 engines of a one-shard runtime receive: the shard
// router parks comments without likes outside every Q2 partition and
// hands a comment to the engines only just before its first like.
func q2View(initial *model.Snapshot, groups []model.ChangeSet) (*model.Snapshot, []model.ChangeSet) {
	liked := map[model.ID]bool{}
	for _, l := range initial.Likes {
		liked[l.CommentID] = true
	}
	snap := *initial
	snap.Comments = nil
	parked := map[model.ID]model.Comment{}
	for _, c := range initial.Comments {
		if liked[c.ID] {
			snap.Comments = append(snap.Comments, c)
		} else {
			parked[c.ID] = c
		}
	}
	out := make([]model.ChangeSet, len(groups))
	for i := range groups {
		for _, ch := range groups[i].Changes {
			switch ch.Kind {
			case model.KindAddComment:
				parked[ch.Comment.ID] = ch.Comment
				continue
			case model.KindAddLike, model.KindRemoveLike:
				if c, ok := parked[ch.Like.CommentID]; ok {
					delete(parked, c.ID)
					out[i].Changes = append(out[i].Changes, model.Change{Kind: model.KindAddComment, Comment: c})
				}
			}
			out[i].Changes = append(out[i].Changes, ch)
		}
	}
	return &snap, out
}

// traceWAL times Append (fsync=always) per commit, a streaming snapshot of
// the final model, and a change-key compaction of the same history written
// with small segments so that most of it is sealed.
func traceWAL(t *trace, groups []model.ChangeSet, final *model.Snapshot, dir string) error {
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	total := 0
	for i := range groups {
		total += len(groups[i].Changes)
		changes := groups[i].Changes
		if err := t.record("wal.append", "server.enqueue", i, func() error { return l.Append(uint64(i+1), changes) }); err != nil {
			l.Close()
			return err
		}
	}
	if err := t.record("wal.snapshot", "", -1, func() error {
		return l.WriteSnapshotStream(uint64(len(groups)), uint64(total), final, nil)
	}); err != nil {
		l.Close()
		return err
	}
	m := l.Metrics()
	t.walAppends, t.walBytes, t.walFsyncs = m.Appends, m.AppendedBytes, m.Fsyncs
	if err := l.Close(); err != nil {
		return err
	}

	c, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-compact"), Sync: wal.SyncOff, SegmentBytes: 8 << 10})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := range groups {
		if err := c.Append(uint64(i+1), groups[i].Changes); err != nil {
			return err
		}
	}
	return t.record("wal.compact", "", -1, func() error { _, err := c.Compact(); return err })
}

// traceShard times shard.Runtime.Commit per commit at the workload's
// shard count.
func traceShard(t *trace, w workload, initial *model.Snapshot, groups []model.ChangeSet) error {
	rt, err := shard.New(w.shards, initial.Clone())
	if err != nil {
		return err
	}
	defer rt.Close()
	for i := range groups {
		cs := cloneSet(&groups[i])
		if err := t.record("shard.commit", "server.enqueue", i, func() error {
			_, err := rt.Commit(cs)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// traceServer times a waited Enqueue per commit on an in-process server
// configured like the workload's ttcserve, then the query handler alone.
func traceServer(t *trace, w workload, initial *model.Snapshot, groups []model.ChangeSet, dir string) error {
	cfg := server.Config{Dataset: &model.Dataset{Snapshot: initial.Clone()}, Shards: w.shards}
	if w.durable {
		cfg.PersistDir = filepath.Join(dir, "server")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	for i := range groups {
		changes := cloneSet(&groups[i]).Changes
		if err := t.record("server.enqueue", "", i, func() error { return srv.Enqueue(changes, true) }); err != nil {
			return err
		}
	}

	h := srv.Handler()
	reqs := make([]*http.Request, len(readPaths))
	for i, p := range readPaths {
		if reqs[i], err = http.NewRequest(http.MethodGet, p, nil); err != nil {
			return err
		}
	}
	rw := &discardWriter{header: http.Header{}}
	for n := 0; n < readHandlerCalls; n++ {
		start := time.Now()
		h.ServeHTTP(rw, reqs[n%len(reqs)])
		t.readHandler = append(t.readHandler, time.Since(start).Nanoseconds())
		if rw.status != http.StatusOK {
			return fmt.Errorf("query handler %s: status %d", readPaths[n%len(reqs)], rw.status)
		}
	}
	return nil
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// selfTime returns, for each commit, the named span's duration minus the
// listed child spans' durations of the same commit.
func (t *trace) selfTime(name string, children ...string) series {
	out := append(series(nil), t.dur[name]...)
	for _, c := range children {
		for i, d := range t.dur[c] {
			if i < len(out) {
				out[i] -= d
			}
		}
	}
	return out
}

// serverSelf is the server's own share of each commit: the waited
// Enqueue minus the shard commit and, when durable, the WAL append and
// the model apply the writer also makes.
func (t *trace) serverSelf(w workload) series {
	if w.durable {
		return t.selfTime("server.enqueue", "shard.commit", "wal.append", "model.apply")
	}
	return t.selfTime("server.enqueue", "shard.commit")
}

func us(ns float64) float64 { return ns / 1e3 }

// layerMetrics are the per-layer numbers of a traced run: span timings
// from the in-process replay, counts from the end-to-end run's /stats.
func layerMetrics(w workload, r *e2eRun, t *trace) []namedMetric {
	engines := []string{server.EngineQ1, server.EngineQ2, server.EngineQ2CC}
	var coreCommit []string
	for _, e := range engines {
		coreCommit = append(coreCommit, "core.update."+e, "core.stats."+e)
	}
	totalChanges := sumInts(t.changes)

	var ms []namedMetric
	add := func(name string, v float64, unit string) {
		ms = append(ms, namedMetric{name, metric{v, unit}})
	}
	add("grb.assemble_us", us(t.dur["grb.assemble"].quantile(0.5)), "us")
	for _, e := range engines {
		add("core.update_us."+e, us(t.dur["core.update."+e].quantile(0.5)), "us")
	}
	for _, e := range engines {
		add("core.update_ns_per_change."+e, safeDiv(float64(t.dur["core.update."+e].sum()), float64(totalChanges)), "ns/change")
	}
	for _, e := range engines {
		add("core.stats_us."+e, us(t.dur["core.stats."+e].quantile(0.5)), "us")
	}
	for _, e := range engines[:2] {
		add("core.batch_update_us."+e, us(t.dur["core.batch_update."+e].quantile(0.5)), "us")
	}
	for _, e := range engines[:2] {
		add("core.fig5_ratio."+e, t.fig5Ratio(e), "ratio")
	}
	add("model.apply_us", us(t.dur["model.apply"].quantile(0.5)), "us")
	add("shard.commit_us.p50", us(t.dur["shard.commit"].quantile(0.5)), "us")
	add("shard.commit_us.p99", us(t.dur["shard.commit"].quantile(0.99)), "us")
	add("shard.self_us", us(t.selfTime("shard.commit", coreCommit...).quantile(0.5)), "us")
	add("shard.rebalances", float64(r.stats.Rebalances), "count")
	add("shard.donor_repairs", float64(r.stats.DonorRepairs), "count")
	add("shard.donor_reloads", float64(r.stats.DonorReloads), "count")
	add("shard.load_ms", r.stats.LoadMs, "ms")
	add("shard.initial_ms", r.stats.InitialMs, "ms")
	enqP50 := t.dur["server.enqueue"].quantile(0.5)
	add("server.enqueue_us.p50", us(enqP50), "us")
	add("server.enqueue_us.p99", us(t.dur["server.enqueue"].quantile(0.99)), "us")
	add("server.self_us", us(t.serverSelf(w).quantile(0.5)), "us")
	add("server.read_handler_ns", t.readHandler.quantile(0.5), "ns")
	// HTTP overhead compares like with like: a waited update against the
	// waited in-process Enqueue; on ingest the acknowledged wait=false
	// request against an in-process queue send, which is taken as free.
	inProc := enqP50
	if w.ingest {
		inProc = 0
	}
	add("server.http_update_overhead_us", us(r.drive.upd.quantile(0.5)-inProc), "us")
	add("server.changes_per_commit", safeDiv(float64(r.stats.Changes), float64(r.stats.Seq)), "changes/commit")
	add("wal.append_us.p50", us(t.dur["wal.append"].quantile(0.5)), "us")
	add("wal.append_us.p99", us(t.dur["wal.append"].quantile(0.99)), "us")
	// The WAL counts come from the server when it is durable, else from
	// the traced log, which appended the same commits.
	bytes, fsyncs, appends, changes := t.walBytes, t.walFsyncs, t.walAppends, totalChanges
	if p := r.stats.Persistence; p != nil {
		bytes, fsyncs, appends, changes = p.WalBytes, p.WalFsyncs, p.WalAppends, r.stats.Changes
	}
	add("wal.bytes_per_change", safeDiv(float64(bytes), float64(changes)), "bytes/change")
	add("wal.fsyncs_per_commit", safeDiv(float64(fsyncs), float64(appends)), "fsyncs/commit")
	add("wal.snapshot_ms", t.dur["wal.snapshot"].quantile(0.5)/1e6, "ms")
	add("wal.compact_ms", t.dur["wal.compact"].quantile(0.5)/1e6, "ms")
	late := append(append(series(nil), r.drive.updLate...), r.drive.readLate...)
	add("loadgen.late_p99_ms", late.quantile(0.99)/1e6, "ms")
	add("loadgen.update_p99_ms", r.drive.upd.quantile(0.99)/1e6, "ms")
	add("loadgen.read_p99_us", r.drive.read.quantile(0.99)/1e3, "us")
	add("loadgen.reads_per_s", r.drive.readsPerSecond(), "reads/s")
	add("loadgen.sent", float64(r.drive.updSent+r.drive.readSent), "count")
	add("loadgen.failed", float64(r.drive.updFailed+r.drive.readFailed), "count")
	return ms
}

// fig5Ratio is the batch engine's median update time over the incremental
// engine's, on the same prefix of commits.
func (t *trace) fig5Ratio(engine string) float64 {
	b := t.dur["core.batch_update."+engine]
	inc := t.dur["core.update."+engine]
	if len(inc) > len(b) {
		inc = inc[:len(b)]
	}
	return safeDiv(b.quantile(0.5), inc.quantile(0.5))
}

// printSanity prints the effects the trace is expected to show, with the
// bases of every ratio, and the durable server's worst snapshot stall
// (in-memory workloads take no snapshots, so it is no per-layer metric: it
// would read 0 on every run of them).
func printSanity(out io.Writer, w workload, r *e2eRun, t *trace) {
	med := func(name string) float64 { return us(t.dur[name].quantile(0.5)) }
	stats := med("core.stats.q1") + med("core.stats.q2")
	upd := med("core.update.q1") + med("core.update.q2")
	fmt.Fprintf(out, "check: core.stats_us q1+q2 = %.1f us vs core.update_us q1+q2 = %.1f us (stats %s update)\n",
		stats, upd, map[bool]string{true: ">", false: "<="}[stats > upd])
	for _, e := range []string{"q1", "q2"} {
		n := len(t.dur["core.batch_update."+e])
		fmt.Fprintf(out, "fig5 %s: batch %.1f us / incremental %.1f us = %.2fx (medians over the first %d commits, %d changes)\n",
			e, med("core.batch_update."+e), us(t.dur["core.update."+e][:n].quantile(0.5)), t.fig5Ratio(e), n, sumInts(t.changes[:n]))
	}
	fmt.Fprintf(out, "check: server.self_us = %.1f us per commit over %d commits of %d changes (flush interval 2000 us; batches of >=%d changes skip it)\n",
		us(t.serverSelf(w).quantile(0.5)), len(t.changes), sumInts(t.changes), maxBatch)
	if p := r.stats.Persistence; p != nil {
		fmt.Fprintf(out, "wal: worst writer stall on a snapshot %.1f us (/stats maxSnapshotStallNs)\n", us(float64(p.MaxSnapshotStallNs)))
	}
	if w.shards > 1 {
		fmt.Fprintf(out, "note: shard.self_us subtracts one-shard engine work; %d shards run their partitions' engines in parallel\n", w.shards)
	}
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
