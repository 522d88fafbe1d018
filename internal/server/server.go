// Package server turns the paper's continuous-reevaluation loop into a
// long-lived serving subsystem: it loads a Social Media dataset once, keeps
// the incremental engines (GraphBLAS Q1/Q2 and the connected-components Q2
// extension) warm behind an N-way sharded runtime (internal/shard), ingests
// comment/like/friendship updates through a batching write queue, and
// serves concurrent Q1/Q2 reads over HTTP/JSON with snapshot isolation —
// readers always observe the result of the last committed batch, never a
// mid-update state.
//
// Write path: Enqueue → buffered queue → the batching goroutine drains
// requests into one batch by group commit: it takes what is already queued,
// up to MaxBatch changes; a batch holding a waited request then commits at
// once, while a batch of only unwaited (wait=false) requests lingers up to
// FlushInterval for company. It validates and applies each request to the
// model state (model.State), which resolves its ids to node indices, then
// commits the merged, resolved change set through the sharded runtime,
// which runs on that State — each shard applies the batch to the served
// engines it hosts, shard 0 on the batching goroutine and every other on a
// goroutine started for the commit, behind a commit barrier, so the new
// Snapshot is published only once the batch is visible on every shard and
// wait=1 keeps meaning "globally visible". With persistence the WAL append
// and fsync run alongside that apply, and publication waits for both: a
// batch is durable before it is published or acknowledged, and a commit's
// latency is the longer of the two steps rather than their sum. Once
// published, the batch is offered to the runtime's audit, which takes it
// only when idle and checks the served answers against the batch engines
// on a goroutine of its own; no commit or read waits for it. Read path:
// an atomic pointer load merging nothing at all — each answer was
// rendered at commit time.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Engine keys of the served answers. /query/q2 serves q2cc's answer, and
// each Snapshot also carries it under EngineQ2, the paper's Q2 key.
const (
	EngineQ1   = "q1"   // GraphBLAS Incremental, Q1
	EngineQ2   = "q2"   // Q2: q2cc's answer
	EngineQ2CC = "q2cc" // incremental connected components, Q2
)

// Config parameterizes a Server.
type Config struct {
	// Dataset serves this dataset directly (tests). When nil, DataDir is
	// read if set, otherwise a dataset is generated from ScaleFactor/Seed.
	Dataset *model.Dataset
	// DataDir is a CSV dataset directory written by ttcgen.
	DataDir string
	// ScaleFactor and Seed parameterize generation when no dataset or
	// directory is given. ScaleFactor defaults to 1, Seed to 2018.
	ScaleFactor int
	Seed        int64

	// MaxBatch caps the number of changes merged into one commit; a single
	// request is never split. Default 64.
	MaxBatch int
	// FlushInterval bounds how long a batch of only unwaited (wait=false)
	// requests lingers for co-batched company before the writer commits
	// anyway. A batch holding a waited request never lingers: it commits
	// once the queue is empty. Default 2ms.
	FlushInterval time.Duration
	// Shards is the number of engine shards: each served engine runs whole
	// on one of them, and from two shards on the engines of different
	// shards apply a commit side by side (see internal/shard). Default 1.
	Shards int

	// PersistDir enables durability: committed batches are appended to a
	// write-ahead log under this directory while the engines apply them,
	// and a batch is published and its waiters released only once its
	// append has returned. The model state is snapshotted periodically, so
	// a restarted server recovers its committed state from disk instead of
	// replaying the dataset (see internal/wal). When the directory holds a
	// valid snapshot it takes precedence over Dataset/DataDir/generation.
	// Empty disables persistence.
	PersistDir string
	// Fsync is the WAL append fsync policy (wal.SyncAlways is the zero
	// value and the default: an acknowledged batch is crash-durable;
	// wal.SyncInterval fsyncs every 100ms, wal.Options' default).
	Fsync wal.SyncPolicy
	// SnapshotEvery writes a durable snapshot every N committed batches
	// (bounding recovery replay to N batches). Default 256; negative
	// disables periodic snapshots (Close still writes a final one).
	SnapshotEvery int
	// CompactEvery runs change-key compaction over the WAL's sealed
	// segments every N committed batches (see internal/wal: superseded
	// add+remove pairs drop out of the replay history, record sequence
	// numbers survive). 0 disables compaction; only meaningful with
	// PersistDir.
	CompactEvery int

	// queueDepth overrides the write queue's buffered capacity in requests
	// (default 256; tests fill a one-slot queue); segmentBytes overrides the
	// WAL's segment rotation threshold (compaction only works on sealed
	// segments, so tests use small ones);
	// snapshotChunkBytes overrides the streaming encoder's chunk size and
	// snapshotChunkHook observes every flushed chunk; batchHook sees each
	// batch the writer closes, before it commits; walHook runs at the start
	// of each commit's WAL step, before the append, and holds that step
	// while it blocks; auditHook is shard.Start's onAudit — test
	// hooks (same package only) for pinning down compaction, encode/commit,
	// batching, append/publish and audit interleavings.
	queueDepth         int
	segmentBytes       int64
	snapshotChunkBytes int
	snapshotChunkHook  func(written int)
	batchHook          func(batch []updateReq)
	walHook            func()
	auditHook          func(seq int) error
}

func (c Config) withDefaults() Config {
	if c.ScaleFactor == 0 {
		c.ScaleFactor = 1
	}
	if c.Seed == 0 {
		c.Seed = 2018
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.queueDepth == 0 {
		c.queueDepth = 256
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Validate rejects nonsense configurations (zero values mean "use the
// default" and are fine); New returns its error. cmd/ttcserve checks its
// flags itself (exit status 2) before calling New, and exits 1 on New's
// error.
func (c Config) Validate() error {
	if c.Dataset == nil && c.DataDir == "" && c.ScaleFactor < 0 {
		return fmt.Errorf("scale factor must be >= 1 (got %d)", c.ScaleFactor)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("max batch must be >= 1 (got %d)", c.MaxBatch)
	}
	if c.FlushInterval < 0 {
		return fmt.Errorf("flush interval must be positive (got %v)", c.FlushInterval)
	}
	if c.Shards < 0 {
		return fmt.Errorf("shards must be >= 1 (got %d)", c.Shards)
	}
	if c.CompactEvery < 0 {
		return fmt.Errorf("compact every must be >= 0 (got %d; 0 disables)", c.CompactEvery)
	}
	return nil
}

// Server is the serving subsystem. Create with New, serve via Handler,
// stop with Close.
type Server struct {
	cfg Config
	// changeSets is the loaded dataset's update stream (ttcserve -replay);
	// the initial snapshot is not kept once state and engines are built.
	changeSets []model.ChangeSet

	// rt owns the engines: the served engines, placed on its shards, and
	// the auditor, the one goroutine it keeps running. Only the batching
	// goroutine commits through it; readers see its figures only through
	// the published Snapshot and the auditor's published values.
	rt *shard.Runtime

	snap atomic.Pointer[Snapshot]

	updates    chan updateReq
	writerDone chan struct{}

	// state is the writer-owned model: every request is validated and
	// applied against it before any engine sees it, and durable snapshots
	// encode its views.
	state *model.State
	// changes and refs are the batch being committed, merged from its
	// accepted requests and as the state resolved it. The writer reuses
	// both from batch to batch: nothing reads them past the commit (the
	// WAL encodes the changes before its append returns, and store only
	// counts them).
	changes []model.Change
	refs    []model.Ref
	// detaches holds the pauses of the copy-on-write detaches the state
	// took since the last publication, writer-owned until store counts
	// them with the next commit.
	detaches []time.Duration
	// wal is the durability subsystem (nil when Config.PersistDir is
	// empty): every committed batch is appended to it before the commit's
	// waiters are released, and the state is periodically snapshotted
	// through it.
	wal *wal.Log
	// ready flips to true once startup WAL replay (if any) has committed;
	// /healthz serves 503 until then.
	ready   atomic.Bool
	durOnce sync.Once // final snapshot + WAL close (Close and the tests' crash)

	// Streaming-snapshot state. snapInProgress is set for the lifetime of a
	// background encode (and the final shutdown snapshot) — /stats and
	// /healthz report it so orchestrators can see a snapshot-draining
	// server. snapAbort tells the encoder's next chunk to abandon the write
	// (crash simulation). snapDone, the in-flight encode's completion
	// channel, and snapPending, a snapshot requested while an encode was in
	// flight and not yet started, are writer-owned.
	snapInProgress atomic.Bool
	snapAbort      atomic.Bool
	snapDone       chan struct{}
	snapPending    bool

	mu      sync.Mutex // guards closing, broken, stats and the bookkeeping below
	closing bool
	// producers counts Enqueue calls between their closing-check and their
	// channel send, so Close can wait for in-flight sends before closing
	// the queue. The send itself happens outside mu: a producer blocked on
	// a full queue must not hold the lock the writer needs to commit.
	producers sync.WaitGroup
	// broken records the first engine failure (see brokenLocked); once set
	// the server keeps serving the last committed snapshot but rejects
	// further writes.
	broken error
	// stats are the /stats counters. publish stores each Snapshot and
	// counts its commit in one critical section, so /stats never pairs a
	// Snapshot with another commit's counters.
	stats counters
	// replayDone/replayTotal are startup replay's progress (/healthz).
	replayDone  int
	replayTotal int
}

// New builds the serving state, warms the served engines through their
// Load and Initial phases, publishes the base snapshot, and starts the
// writer; the runtime's first audit checks the base state in the
// background (see shard.Start), and nothing waits for it. The base state
// is validated before any engine loads; a state that fails validation is
// never served: New returns the validation error, which wraps
// model.ErrIntegrity.
//
// Without persistence the base state is the configured dataset (loaded or
// generated). With Config.PersistDir the durability directory decides: a
// valid durable snapshot there becomes the base state (the dataset is not
// touched — that is the point), and any WAL batches committed after it are
// replayed through the engines in the background before the server reports
// ready; a fresh directory starts from the dataset and seeds it with the
// seq-0 snapshot.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var (
		wlog *wal.Log
		rec  wal.RecoveryInfo
		err  error
	)
	start := time.Now()
	if cfg.PersistDir != "" {
		wlog, rec, err = wal.Open(wal.Options{
			Dir:                cfg.PersistDir,
			Sync:               cfg.Fsync,
			SegmentBytes:       cfg.segmentBytes,
			SnapshotChunkBytes: cfg.snapshotChunkBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open wal: %w", err)
		}
	}

	// Until the Server owns it, every error path must release the log
	// (its active-segment fd and, under SyncInterval, the flush goroutine).
	closeWAL := func() {
		if wlog != nil {
			wlog.Close()
		}
	}

	var d *model.Dataset
	if rec.HasSnapshot {
		d = &model.Dataset{Snapshot: rec.Snapshot}
	} else {
		d = cfg.Dataset
		if d == nil {
			if cfg.DataDir != "" {
				d, err = model.ReadDataset(cfg.DataDir)
				if err != nil {
					closeWAL()
					return nil, fmt.Errorf("server: load dataset: %w", err)
				}
			} else {
				d = datagen.Generate(datagen.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
			}
		}
	}

	// The engines only ever serve states that pass the integrity rules:
	// the State validates the snapshot and resolves its ids once, and the
	// shard runtime starts on it. The State holds its own copy, so nothing
	// of the parsed dataset but its change sets is kept past this point.
	read := time.Since(start)
	start = time.Now()
	state, err := model.NewState(d.Snapshot)
	validate := time.Since(start)
	if err != nil {
		closeWAL()
		return nil, fmt.Errorf("server: %w", err)
	}
	changeSets := d.ChangeSets
	rec.Snapshot, cfg.Dataset = nil, nil
	baseSeq, baseChanges := 0, 0
	if rec.HasSnapshot {
		baseSeq, baseChanges = int(rec.SnapshotSeq), int(rec.SnapshotMeta)
	}
	// The kernels run on one thread: the shards and the audit already run
	// side by side on their own goroutines, and a commit's work is O(Δ).
	grb.SetThreads(1)
	rt, err := shard.Start(cfg.Shards, state, baseSeq, cfg.auditHook)
	if err != nil {
		closeWAL()
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		changeSets: changeSets,
		rt:         rt,
		state:      state,
		updates:    make(chan updateReq, cfg.queueDepth),
		writerDone: make(chan struct{}),
		wal:        wlog,
	}
	state.OnDetach = s.noteDetach
	s.stats.Read = durationMS(read)
	s.stats.State = durationMS(validate)
	s.stats.Load = durationMS(rt.LoadDuration())
	s.stats.Initial = durationMS(rt.InitialDuration())

	if s.wal != nil {
		s.stats.Persist.Recovered = rec.HasSnapshot
		s.stats.Persist.Recovery.SnapshotSeq = baseSeq
		s.stats.Persist.Recovery.TruncatedBytes = rec.TruncatedBytes
		s.replayTotal = len(rec.Batches)
	}

	s.snap.Store(&Snapshot{
		Seq:     baseSeq,
		Changes: baseChanges,
		Record:  rt.Record(),
		At:      time.Now(),
	})

	if s.wal != nil && !rec.HasSnapshot {
		// Seed a fresh durability directory with the base state so recovery
		// never needs the dataset again. It is written from a view of the
		// State, as every periodic snapshot is.
		view, release := state.View()
		err := s.wal.WriteSnapshotStream(uint64(baseSeq), uint64(baseChanges), view, nil)
		release()
		if err != nil {
			s.rt.Close()
			s.wal.Close()
			return nil, fmt.Errorf("server: seed snapshot: %w", err)
		}
	}

	// Readiness: immediate unless there is a WAL tail to replay, in which
	// case the writer flips it after the replay commits.
	s.ready.Store(len(rec.Batches) == 0)
	go s.writer(rec.Batches)
	return s, nil
}

// ChangeSets returns the loaded dataset's change sets — the natural replay
// stream for warming or testing. It is empty after recovery from a durable
// snapshot, which never loads the dataset.
func (s *Server) ChangeSets() []model.ChangeSet { return s.changeSets }

// Snapshot returns the last committed state. It never blocks on writers.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Enqueue submits one update request (all its changes commit atomically, in
// one batch). With wait=true it blocks until the request's batch has been
// committed and published, returning any validation or engine error; with
// wait=false it returns once the request is queued.
func (s *Server) Enqueue(changes []model.Change, wait bool) error {
	if len(changes) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.brokenLocked(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrBroken, err)
	}
	s.producers.Add(1)
	s.mu.Unlock()

	req := updateReq{changes: changes}
	if wait {
		req.done = make(chan error, 1)
	}
	// The send can block on a full queue; it must happen outside mu, which
	// the writer needs to commit (and hence to drain the queue). Close
	// cannot close the channel under us: it waits for producers first, and
	// the writer keeps draining until the channel is closed.
	s.updates <- req
	s.producers.Done()
	if wait {
		return <-req.done
	}
	return nil
}

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("server: closed")

// ErrBroken wraps the first engine failure; the server keeps serving reads
// but refuses writes once its engines may have diverged.
var ErrBroken = errors.New("server: engines failed")

// QueueDepth reports the number of update requests waiting in the queue.
func (s *Server) QueueDepth() int { return len(s.updates) }

// Close stops the batching goroutine after it drains the queue, then stops
// the runtime's auditor. Pending waiters are answered (committed requests
// with nil, the rest with an error); subsequent Enqueue calls return
// ErrClosed.
//
// Shutdown-race audit (see TestCloseDuringWaitedEnqueue): a waited Enqueue
// concurrently with Close can never hang. Enqueue registers in producers
// under mu before sending, so Close's producers.Wait() delays the channel
// close past every in-flight send; the batching goroutine keeps draining
// until the channel is closed, so every sent request reaches commit, and
// commit answers every waiter exactly once (nil after publication,
// ErrRejected/ErrBroken otherwise). An Enqueue that arrives after Close
// flipped closing fails fast with ErrClosed and never touches the queue.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.writerDone
		s.rt.Close()
		s.closeDurable(true)
		return
	}
	s.closing = true
	s.mu.Unlock()
	// New Enqueue calls now fail fast; wait for in-flight sends, then close
	// the queue so the batching goroutine drains it and exits; only then is
	// the shard runtime (which it commits through) shut down.
	s.producers.Wait()
	close(s.updates)
	<-s.writerDone
	s.rt.Close()
	s.closeDurable(true)
}

// closeDurable finishes the durability subsystem exactly once: a graceful
// close drains any in-flight background encode, writes a final snapshot
// through snapshotDurable and waits for it (so the next start replays
// nothing; snapInProgress stays set meanwhile, so /healthz reports the
// drain), and fsyncs the WAL; an abrupt one aborts the encode at its next
// chunk (dropping the temp file, exactly as a crash would) and drops the
// file handles. The final snapshot is skipped
// when the engines are broken — the materialized state may then be ahead
// of the published seq, and the WAL alone is the truth.
//
// Both paths run after the writer goroutine has exited (Close/crash wait
// on writerDone first), so reading the writer-owned snapDone handle and
// taking a view of the writer-owned state are race-free.
func (s *Server) closeDurable(graceful bool) {
	if s.wal == nil {
		return
	}
	s.durOnce.Do(func() {
		if graceful {
			s.waitSnapshot()
			if s.brokenErr() == nil && s.ready.Load() {
				s.snapshotDurable(s.snap.Load().Seq)
				s.waitSnapshot()
			}
			_ = s.wal.Close()
		} else {
			s.snapAbort.Store(true)
			s.waitSnapshot()
			s.wal.Abandon()
		}
	})
}

// waitSnapshot blocks until the in-flight background snapshot encode (if
// any) has finished or aborted.
func (s *Server) waitSnapshot() {
	if s.snapDone != nil {
		<-s.snapDone
	}
}

// Ready reports whether startup WAL replay (if any) has completed and the
// served snapshots reflect every recovered commit. /healthz maps false to
// 503.
func (s *Server) Ready() bool { return s.ready.Load() }

// Recovered reports whether the base state came from a durable snapshot in
// Config.PersistDir rather than from the dataset. (Set once by New, before
// any other goroutine reads it.)
func (s *Server) Recovered() bool { return s.stats.Persist.Recovered }

// Handler returns the HTTP API (see handlers.go for routes).
func (s *Server) Handler() http.Handler { return s.routes() }

func (s *Server) setBroken(err error) {
	s.mu.Lock()
	if s.broken == nil {
		s.broken = err
	}
	s.mu.Unlock()
}

func (s *Server) brokenErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brokenLocked()
}

// brokenLocked returns the first engine failure: a commit's, or an
// audit's, which it records on first sight. s.mu must be held.
func (s *Server) brokenLocked() error {
	if s.broken == nil {
		if err := s.rt.Audited().Err; err != nil {
			s.broken = err
		}
	}
	return s.broken
}
