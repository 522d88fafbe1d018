package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
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

// commit validates and applies each request to the model state, makes the
// merged change set of the accepted requests durable (WAL append, honoring
// the fsync policy), commits it through the sharded runtime (whose barrier
// returns only once every shard has applied its slice), publishes the new
// snapshot, and answers the waiters. Rejected requests get their error and
// do not reach any engine; accepted requests only get nil after their
// batch is in the WAL *and* visible to readers on all shards, so a waited
// update survives a crash the instant /update returns.
func (s *Server) commit(batch []updateReq) {
	if err := s.brokenErr(); err != nil {
		for i := range batch {
			batch[i].finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
		return
	}

	cs := &model.ChangeSet{}
	accepted := make([]*updateReq, 0, len(batch))
	for i := range batch {
		req := &batch[i]
		if err := s.state.Apply(req.changes); err != nil {
			req.finish(fmt.Errorf("%w: %w", ErrRejected, err))
			continue
		}
		cs.Changes = append(cs.Changes, req.changes...)
		accepted = append(accepted, req)
	}
	if len(cs.Changes) == 0 {
		return
	}

	fail := func(err error) {
		s.setBroken(err)
		for _, req := range accepted {
			req.finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
	}

	// Canonicalize the merged batch (friendship endpoints ordered) so the
	// WAL stores — and every engine sees — the change-key-normalized form;
	// cs.Changes is the writer's own copy, never a caller's slice.
	cs.Normalize()

	seq := s.snap.Load().Seq + 1
	if s.wal != nil {
		// Write-ahead: the batch must be durable before any engine applies
		// it. A batch in the WAL but not yet applied is exactly what
		// startup replay redoes, so a crash at any point after this line
		// recovers the batch.
		if err := s.wal.Append(uint64(seq), cs.Changes); err != nil {
			fail(fmt.Errorf("wal append: %w", err))
			return
		}
	}

	if err := s.publish(seq, cs); err != nil {
		// Validation should make this unreachable; if it happens some
		// shards may have applied the batch while another failed, so stop
		// accepting writes but keep serving the last committed snapshot.
		fail(fmt.Errorf("commit: %w", err))
		return
	}

	for _, req := range accepted {
		req.finish(nil)
	}

	// Snapshot cadence: every SnapshotEvery commits, after the waiters are
	// answered so snapshot encoding never sits on a commit ack.
	if s.wal != nil && s.cfg.SnapshotEvery > 0 && seq%s.cfg.SnapshotEvery == 0 {
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

// publish commits cs through the sharded runtime as batch seq, publishes the
// new Snapshot, and records the update phase and the Q2 cross-check. It is
// the last step of both a live commit and WAL replay.
func (s *Server) publish(seq int, cs *model.ChangeSet) error {
	start := time.Now()
	rec, err := s.rt.Commit(cs)
	if err != nil {
		return err
	}
	elapsed := durationMS(time.Since(start))

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
	if rec.Results[EngineQ2] != rec.Results[EngineQ2CC] {
		s.stats.Q2Disagreements++
	}
	s.mu.Unlock()
	return nil
}

// replayWAL redoes the recovered log tail through the engines before any
// queued request commits. Returns false (leaving the server broken and not
// ready) if a recovered batch fails — that means the durability directory
// disagrees with the base snapshot, and serving writes on top would
// diverge. On success it writes a fresh durable snapshot so the next
// restart replays nothing.
func (s *Server) replayWAL(batches []wal.Batch) bool {
	start := time.Now()
	replayed := 0
	for i, b := range batches {
		s.mu.Lock()
		s.replayDone = i
		s.mu.Unlock()
		replayed += len(b.Changes)
		if err := s.state.Apply(b.Changes); err != nil {
			s.setBroken(fmt.Errorf("wal replay: batch seq %d: %w", b.Seq, err))
			return false
		}
		if err := s.publish(int(b.Seq), &model.ChangeSet{Changes: b.Changes}); err != nil {
			s.setBroken(fmt.Errorf("wal replay: commit seq %d: %w", b.Seq, err))
			return false
		}
	}
	last := int(batches[len(batches)-1].Seq)
	s.snapshotDurable(last)
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

// noteDetach records a copy-on-write detach of the edge arrays: a removal
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
	s.mu.Lock()
	last := s.lastSnap
	s.mu.Unlock()
	if seq == last {
		return
	}
	if s.snapInProgress.Load() {
		// One encode in flight at a time: a skipped cadence point only
		// means the WAL replays a little longer, and the next trigger
		// catches up.
		s.mu.Lock()
		s.stats.Persist.SkippedSnapshots++
		s.mu.Unlock()
		return
	}
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
		s.finishSnapshot(seq, encStart, err)
		s.snapInProgress.Store(false)
	}()
	s.noteSnapStall(time.Since(start))
}

// finishSnapshot records one snapshot attempt's outcome. Callers clear
// snapInProgress only *after* this returns: single-flighting means a newer
// encode cannot start — and so cannot write its bookkeeping — until the
// older one's has landed, which keeps lastSnap monotone.
func (s *Server) finishSnapshot(seq int, start time.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.stats.Persist.StreamedSnapshots++
		s.lastSnap = seq
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
