package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/wal"
)

// ErrRejected marks an update that failed referential-integrity validation
// and was not applied to any engine.
var ErrRejected = errors.New("server: update rejected")

// updateReq is one Enqueue call: its changes commit atomically in a single
// batch (never split across commits). done, when non-nil, receives the
// request's outcome after its batch is published.
type updateReq struct {
	changes []model.Change
	done    chan error
}

func (r *updateReq) finish(err error) {
	if r.done != nil {
		r.done <- err
	}
}

// writer is the single goroutine that owns the engines and the model
// state. It first replays the recovered WAL tail (if any) and flips the
// server ready, then drains the queue into batches (see fill), commits each
// batch and publishes the new snapshot. It exits when Close closes the
// queue, after draining it. Requests enqueued during replay simply wait in
// the queue: they commit (and their wait=1 returns) only after every
// recovered batch is visible, preserving commit order across the restart.
func (s *Server) writer(replay []wal.Batch) {
	defer close(s.writerDone)
	if len(replay) > 0 {
		if s.replayWAL(replay) {
			s.ready.Store(true)
		}
	}
	for first := range s.updates {
		batch := s.fill(first)
		if h := s.cfg.batchHook; h != nil {
			h(batch)
		}
		s.commit(batch)
	}
}

// fill grows a batch from its first request by group commit: it takes
// whatever is already queued until the batch holds MaxBatch changes (the
// last request may overshoot — a request is never split). Then the waiter
// rule decides. A batch holding a waited request commits as soon as the
// queue is empty, because a client is blocked on it. A batch of only
// unwaited requests — acknowledged at enqueue, so batching them costs no
// one visible latency — lingers up to FlushInterval from its first request
// for co-batched company; a waited request that joins it ends the linger.
// A closed queue ends the batch too.
func (s *Server) fill(first updateReq) []updateReq {
	batch := []updateReq{first}
	n := len(first.changes)
	waited := first.done != nil
	start := time.Now()
	var linger *time.Timer
	for n < s.cfg.MaxBatch {
		var req updateReq
		var open bool
		select {
		case req, open = <-s.updates:
		default:
			if waited {
				return batch
			}
			if linger == nil {
				linger = time.NewTimer(s.cfg.FlushInterval - time.Since(start))
				defer linger.Stop()
			}
			select {
			case req, open = <-s.updates:
			case <-linger.C:
				return batch
			}
		}
		if !open {
			return batch
		}
		batch = append(batch, req)
		n += len(req.changes)
		waited = waited || req.done != nil
	}
	return batch
}

// commit validates and applies each request to the model state, then runs
// two steps side by side on the merged change set of the accepted
// requests: the WAL append (honoring the fsync policy) and the commit
// through the sharded runtime (whose barrier returns only once every shard
// has applied its slice). Only when both have returned does it publish the
// new snapshot, offer it to the audit and answer the waiters. Rejected
// requests get their error and do not reach any engine; accepted requests
// only get nil after their batch is in the WAL *and* visible to readers on
// all shards, so a waited update survives a crash the instant /update
// returns.
func (s *Server) commit(batch []updateReq) {
	if err := s.brokenErr(); err != nil {
		for i := range batch {
			batch[i].finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
		return
	}

	accepted := make([]*updateReq, 0, len(batch))
	s.changes, s.refs = s.changes[:0], s.refs[:0]
	for i := range batch {
		req := &batch[i]
		refs, err := s.state.Apply(req.changes)
		if err != nil {
			req.finish(fmt.Errorf("%w: %w", ErrRejected, err))
			continue
		}
		s.changes = append(s.changes, req.changes...)
		s.refs = append(s.refs, refs...)
		accepted = append(accepted, req)
	}
	if len(s.changes) == 0 {
		return
	}
	cs := model.ChangeSet{Changes: s.changes}
	seq := s.snap.Load().Seq + 1
	// Pre-commit: the engines apply the batch while the WAL appends it,
	// since neither needs the other's result. The batch is durable before
	// it is published or acknowledged: both wait for publish's join, and
	// so do snapshots and compaction. A crash before the join loses only a
	// batch that nobody saw; replay then redoes it if its record landed.
	var logged chan error
	if s.wal != nil {
		logged = make(chan error, 1)
		go func() {
			if h := s.cfg.walHook; h != nil {
				h()
			}
			logged <- s.wal.Append(uint64(seq), s.changes)
		}()
	}
	if err := s.publish(seq, &cs, s.refs, logged); err != nil {
		// Validation should make a failed apply unreachable; if it happens
		// some shards may have applied the batch while another failed, so
		// stop accepting writes but keep serving the last committed
		// snapshot.
		s.setBroken(err)
		for _, req := range accepted {
			req.finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
		return
	}
	for _, req := range accepted {
		req.finish(nil)
	}

	// Snapshot cadence: every SnapshotEvery commits, after the waiters are
	// answered so snapshot encoding never sits on a commit ack. A cadence
	// point that finds an encode in flight leaves one pending request,
	// which the first commit after that encode lands starts.
	if s.wal != nil && s.cfg.SnapshotEvery > 0 && (s.snapPending || seq%s.cfg.SnapshotEvery == 0) {
		s.snapshotDurable(seq)
	}
	// Compaction cadence: supersede add+remove churn in the sealed WAL
	// segments. Like snapshots it runs after the acks, and a failure only
	// means the history replays longer.
	if s.wal != nil && s.cfg.CompactEvery > 0 && seq%s.cfg.CompactEvery == 0 {
		rep, err := s.wal.Compact()
		s.mu.Lock()
		if err != nil {
			s.stats.Persist.CompactionErrors++
		} else {
			s.stats.Persist.LastCompaction = &rep
		}
		s.mu.Unlock()
	}
}

// publish commits cs, which the State resolved to refs, through the
// sharded runtime as batch seq, stores the result and offers it to the
// runtime's audit, which takes it only when idle and never makes it wait.
// A live commit passes logged, the result of the WAL append it runs beside
// the apply: publish waits for it even when the apply failed, and its
// error wins. WAL replay passes nil.
func (s *Server) publish(seq int, cs *model.ChangeSet, refs []model.Ref, logged <-chan error) error {
	start := time.Now()
	rec, err := s.rt.CommitRefs(refs)
	elapsed := time.Since(start)
	if logged != nil {
		if werr := <-logged; werr != nil {
			return fmt.Errorf("wal append: %w", werr)
		}
	}
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	s.store(seq, cs, rec, elapsed)
	s.rt.Audit()
	return nil
}

// store publishes rec, the runtime's Record after batch seq (cs), as the
// new Snapshot, and records the update phase (apply took elapsed) with
// it. It is the last step of both a live commit and WAL replay before the
// audit is offered the batch.
func (s *Server) store(seq int, cs *model.ChangeSet, rec *shard.Record, apply time.Duration) {
	elapsed := durationMS(apply)
	prev := s.snap.Load()
	next := &Snapshot{
		Seq:      seq,
		Changes:  prev.Changes + len(cs.Changes),
		Inserts:  prev.Inserts + cs.InsertCount(),
		Removals: prev.Removals + cs.RemovalCount(),
		Record:   rec,
		At:       time.Now(),
	}
	s.mu.Lock()
	s.snap.Store(next)
	s.stats.Updates.Count++
	s.stats.Updates.Total += elapsed
	s.stats.Updates.Last = elapsed
	s.mu.Unlock()
}

// replayWAL redoes the recovered log tail through the served engines
// before any queued request commits; the audits that follow check the
// state it recovers, not each batch. Returns false
// (leaving the server broken and not ready) if a recovered batch fails —
// that means the durability directory disagrees with the base snapshot,
// and serving writes on top would diverge. On success it writes a fresh
// durable snapshot so the next restart replays nothing.
func (s *Server) replayWAL(batches []wal.Batch) bool {
	start := time.Now()
	replayed := 0
	for i, b := range batches {
		s.mu.Lock()
		s.replayDone = i
		s.mu.Unlock()
		replayed += len(b.Changes)
		refs, err := s.state.Apply(b.Changes)
		if err != nil {
			s.setBroken(fmt.Errorf("wal replay: batch seq %d: %w", b.Seq, err))
			return false
		}
		if err := s.publish(int(b.Seq), &model.ChangeSet{Changes: b.Changes}, refs, nil); err != nil {
			s.setBroken(fmt.Errorf("wal replay: seq %d: %w", b.Seq, err))
			return false
		}
	}
	s.snapshotDurable(int(batches[len(batches)-1].Seq))
	s.mu.Lock()
	s.replayDone = len(batches)
	s.stats.Persist.Recovery.ReplayedBatches = len(batches)
	s.stats.Persist.Recovery.ReplayedChanges = replayed
	s.stats.Persist.Recovery.Ms = durationMS(time.Since(start))
	s.mu.Unlock()
	return true
}

// noteSnapStall records one writer pause attributable to snapshot work —
// the stat /stats defends: it should stay at microseconds (the view
// handoff) to one edge-array copy (a copy-on-write detach), never a full
// encode.
func (s *Server) noteSnapStall(d time.Duration) {
	s.mu.Lock()
	s.stats.Persist.LastSnapshotStallNs = d.Nanoseconds()
	s.stats.Persist.MaxSnapshotStallNs = max(s.stats.Persist.MaxSnapshotStallNs, d.Nanoseconds())
	s.mu.Unlock()
}

// noteDetach records a copy-on-write detach of the edge keys: a removal
// committed while an encode still reads a view of them.
func (s *Server) noteDetach(d time.Duration) {
	s.noteSnapStall(d)
	s.mu.Lock()
	s.stats.Persist.CowClones++
	s.mu.Unlock()
}

// snapshotDurable persists the materialized model state at seq. A failure
// is not fatal — the WAL still holds every commit since the last good
// snapshot, so durability degrades to a longer replay — but it is counted
// and surfaced in /stats.
//
// Called by the writer goroutine, which only pays the O(1) copy-on-write
// handoff (model.State.View): a background goroutine streams the view to
// disk chunk by chunk while the writer returns to draining the queue. The
// graceful close calls it too, once the writer has exited, and waits.
func (s *Server) snapshotDurable(seq int) {
	if uint64(seq) == s.wal.Metrics().LastSnapSeq {
		return // already written
	}
	if s.snapInProgress.Load() {
		// One encode in flight at a time: the request waits for it to
		// land, so replay stays bounded by the cadence plus the batches
		// committed during one encode. Requests made meanwhile share the
		// one pending snapshot, which covers them all.
		if !s.snapPending {
			s.snapPending = true
			s.mu.Lock()
			s.stats.Persist.SkippedSnapshots++
			s.mu.Unlock()
		}
		return
	}
	s.snapPending = false
	start := time.Now()
	view, release := s.state.View()
	s.snapInProgress.Store(true)
	done := make(chan struct{})
	s.snapDone = done
	meta := uint64(s.snap.Load().Changes)
	go func() {
		defer close(done)
		encStart := time.Now()
		err := s.wal.WriteSnapshotStream(uint64(seq), meta, view, s.streamChunk)
		release()
		s.finishSnapshot(encStart, err)
		s.snapInProgress.Store(false)
	}()
	s.noteSnapStall(time.Since(start))
}

// finishSnapshot records one snapshot attempt's outcome. Callers clear
// snapInProgress only *after* this returns: single-flighting means a newer
// encode cannot start — and so cannot write its bookkeeping — until the
// older one's has landed.
func (s *Server) finishSnapshot(start time.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.stats.Persist.StreamedSnapshots++
		s.stats.Persist.LastSnapshotMs = durationMS(time.Since(start))
	case errors.Is(err, wal.ErrSnapshotAborted):
		// Shutdown cancellation, not a failure.
	default:
		s.stats.Persist.SnapshotErrors++
	}
}

// streamChunk is the background encoder's per-chunk callback: it honors
// shutdown aborts (crash simulation drops the temp file exactly as a real
// crash would) and the test hook.
func (s *Server) streamChunk(written int) error {
	if s.snapAbort.Load() {
		return wal.ErrSnapshotAborted
	}
	if h := s.cfg.snapshotChunkHook; h != nil {
		h(written)
	}
	return nil
}
