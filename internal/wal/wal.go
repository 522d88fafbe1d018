// Package wal makes the serving subsystem durable: it persists every
// committed update batch to a segmented, checksummed write-ahead log and
// periodically snapshots the full model state, so a restarted server
// recovers by loading the latest valid snapshot and replaying the log tail
// instead of replaying the entire dataset from CSV — exactly the batch
// recomputation cost the paper's incremental engines exist to avoid.
//
// Layout of a durability directory:
//
//	wal-<firstseq>.seg   append log segments (see record.go for the framing)
//	snap-<seq>.snap      model snapshots, written atomically (replaceFile)
//
// Both write an entity as its family's int64 fields in the order of
// model's codec table (model.KeyKind.Fields), the order the dataset CSV
// files and /update bodies use too; this package names no entity field.
//
// Records are length-prefixed and CRC-32C-checksummed individually, so a
// torn or corrupted tail record — the signature of a crash mid-write — is
// detected and truncated on open, never fatal; corruption anywhere before
// the tail means real data loss and is reported as an error. Appends obey a
// configurable fsync policy (SyncAlways, SyncInterval, SyncOff) trading
// commit latency against the crash-loss window; segment files rotate at a
// size threshold, and a successful snapshot trims segments and snapshots
// the log no longer needs.
//
// Every reader of the directory goes through one read-only scan (scan.go)
// and one recovery rule: load the newest snapshot that decodes, replay the
// intact records above its seq, which must run contiguously from it. Open
// is that scan plus the repairs only it makes (truncating a torn tail,
// dropping a headerless last segment, sweeping temp files); Verify reports
// the same scan, so ttcwal flags a gap exactly when Open refuses to start.
// Compaction rewrites a sealed segment only when no snapshot on disk or in
// flight splits it: recovery replays a whole compacted segment or none of
// it. Append and Compact are intended for the one committing goroutine;
// WriteSnapshotStream may run beside it on another goroutine, and Metrics
// is safe from any goroutine.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: a batch acknowledged to
	// a client is crash-durable. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.SyncInterval): a crash can
	// lose at most the last interval's worth of commits, in exchange for
	// amortizing the fsync cost across batches.
	SyncInterval
	// SyncOff never fsyncs explicitly (the OS flushes on its own schedule);
	// Close still syncs. For tests and workloads that accept loss.
	SyncOff
)

// syncPolicyNames are the policies' names, the ttcserve -fsync values.
var syncPolicyNames = [...]string{SyncAlways: "always", SyncInterval: "interval", SyncOff: "off"}

// String names the policy (the inverse of ParseSyncPolicy).
func (p SyncPolicy) String() string {
	if p < 0 || int(p) >= len(syncPolicyNames) {
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
	return syncPolicyNames[p]
}

// ParseSyncPolicy maps the ttcserve -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range syncPolicyNames {
		if s == name {
			return SyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// Options parameterizes Open. Zero values mean defaults.
type Options struct {
	// Dir is the durability directory; created if missing. Required.
	Dir string
	// Sync is the append fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval. Default 100ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
	// SnapshotChunkBytes bounds the streaming snapshot encoder's in-memory
	// buffer: WriteSnapshotStream flushes a CRC-framed chunk whenever the
	// buffer reaches this size. Default 256 KiB.
	SnapshotChunkBytes int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		// A non-positive threshold would rotate after every append — one
		// segment file (and directory fsync) per batch; treat it as unset.
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotChunkBytes <= 0 {
		o.SnapshotChunkBytes = defaultSnapChunk
	}
	// The decoder rejects chunks above maxSnapChunkLen; cap the configured
	// size well below it (the encoder may overshoot the limit by one
	// entity) so no configuration can write snapshots recovery refuses.
	if o.SnapshotChunkBytes > maxSnapChunkLen/2 {
		o.SnapshotChunkBytes = maxSnapChunkLen / 2
	}
	return o
}

// RecoveryInfo is what Open found on disk: the state a recovering server
// rebuilds from.
type RecoveryInfo struct {
	// HasSnapshot reports whether a valid snapshot was found; Snapshot and
	// SnapshotSeq are only meaningful if so.
	HasSnapshot bool
	// SnapshotSeq is the commit sequence number the snapshot captures.
	SnapshotSeq uint64
	// SnapshotMeta is the opaque caller value stored with the snapshot
	// (the server keeps its committed-changes counter there).
	SnapshotMeta uint64
	// Snapshot is the decoded model state.
	Snapshot *model.Snapshot
	// Batches are the committed batches with Seq > SnapshotSeq, in commit
	// order with contiguous sequence numbers — the replay tail.
	Batches []Batch
	// TruncatedBytes counts torn/corrupt tail bytes removed from the final
	// segment (0 for a cleanly closed log).
	TruncatedBytes int64
}

// Metrics is a point-in-time view of the log's counters, served by /stats
// under "persistence" with the JSON names below.
type Metrics struct {
	Appends       int64 `json:"walAppends"`    // records appended this process
	AppendedBytes int64 `json:"walBytes"`      // framed bytes appended this process
	Fsyncs        int64 `json:"walFsyncs"`     // explicit fsyncs of the active segment
	Rotations     int64 `json:"walRotations"`  // segment rotations
	Segments      int   `json:"walSegments"`   // live segment files
	ActiveBytes   int64 `json:"-"`             // size of the active segment
	Snapshots     int64 `json:"snapshots"`     // snapshots written this process
	SnapshotBytes int64 `json:"snapshotBytes"` // bytes of the last written snapshot
	// LastSnapSeq is the seq of the snapshot Open recovered (0 without
	// one), then of each snapshot WriteSnapshotStream lands.
	LastSnapSeq uint64 `json:"lastSnapshotSeq"`
	TrimmedSegs int64  `json:"trimmedSegments"` // segments deleted by snapshot trims
	SyncErrors  int64  `json:"walSyncErrors"`   // background interval-sync failures

	Compactions    int64 `json:"compactions"`       // change-key compaction passes this process
	CompactedSegs  int64 `json:"compactedSegments"` // sealed segments rewritten by compaction
	CompactedBytes int64 `json:"compactedBytes"`    // bytes reclaimed by compaction
}

// Log is an open write-ahead log. Create with Open.
type Log struct {
	opt Options

	// maintMu serializes the operations that restructure sealed segment
	// *files*: a snapshot's post-write trim (which deletes sealed segments)
	// and Compact's rewrite-then-swap. Snapshots may complete on a
	// background goroutine while the committing goroutine runs Compact, and
	// a trim racing a rewrite could resurrect a deleted segment (the
	// .compact rename recreating a name the trim just removed) — tearing a
	// hole recovery refuses. Ordering: maintMu before mu; Append never
	// takes it, so the commit hot path is unaffected.
	maintMu sync.Mutex

	mu       sync.Mutex
	active   *os.File
	actSize  int64
	segments []Segment // ascending; last is active (Bytes, Err unused)
	lastSeq  uint64    // highest appended/recovered sequence number
	dirty    bool      // unsynced appends
	err      error     // sticky write/sync failure
	closed   bool
	metrics  Metrics

	// writing holds the seqs of the snapshots WriteSnapshotStream is
	// writing: like the snap-*.snap files on disk, recovery may load them,
	// so compaction must not rewrite a segment they split.
	writing []uint64
	// compactedSeq is the last seq of the newest sealed segment a Compact
	// pass has claimed: sealed segments are immutable and segment-local
	// compaction is idempotent, so later passes skip the segments at or
	// below it (a failed pass leaves its claimed segments uncompacted). A
	// snapshot below it is refused — it could fall inside a rewritten
	// segment.
	compactedSeq uint64

	stopSync chan struct{} // interval-sync goroutine shutdown
	syncDone chan struct{}
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstSeq)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

// Open opens (creating if needed) the durability directory, repairs a torn
// tail, and returns the log positioned for appends plus everything needed
// to rebuild serving state. See the package comment for the recovery
// procedure.
func Open(opt Options) (*Log, RecoveryInfo, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, RecoveryInfo{}, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: %w", err)
	}

	// Sweep snapshot and compaction temp files orphaned by a crash between
	// write and rename; only renamed ".snap"/".seg" files are ever part of
	// recovery.
	for _, pattern := range []string{"snap-*.snap.tmp", "wal-*.seg.compact"} {
		if tmps, err := filepath.Glob(filepath.Join(opt.Dir, pattern)); err == nil {
			for _, tmp := range tmps {
				_ = os.Remove(tmp)
			}
		}
	}

	rep, err := scanDir(opt.Dir, false, nil)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	segs := rep.Segments
	for i, seg := range segs {
		if seg.Err != "" && (i < len(segs)-1 || seg.Interior) {
			return nil, RecoveryInfo{}, fmt.Errorf(
				"wal: segment %s is corrupt at offset %d (%s) with committed records after it; refusing to drop acknowledged data — restore the file or inspect with ttcwal", seg.Name, seg.Offset, seg.Err)
		}
	}
	if rep.gap != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: %w", rep.gap)
	}
	info := RecoveryInfo{
		HasSnapshot:  rep.base != nil,
		SnapshotSeq:  rep.baseSeq,
		SnapshotMeta: rep.baseMeta,
		Snapshot:     rep.base,
		Batches:      rep.tail,
	}

	// A damaged final segment is a torn tail: cut it back to its last
	// intact record, or drop it when not even the header survived (crash
	// between create and header write); a fresh segment replaces it.
	if n := len(segs); n > 0 && segs[n-1].Err != "" {
		last := segs[n-1]
		path := filepath.Join(opt.Dir, last.Name)
		info.TruncatedBytes = last.Bytes - last.validEnd
		if last.validEnd < int64(len(segmentMagic)) {
			if err := os.Remove(path); err != nil {
				return nil, RecoveryInfo{}, fmt.Errorf("wal: remove headerless segment %s: %w", last.Name, err)
			}
			segs = segs[:n-1]
		} else if err := os.Truncate(path, last.validEnd); err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("wal: truncate torn tail of %s: %w", last.Name, err)
		}
	}

	// With the tail contiguous, the newest record (or the snapshot, when it
	// is ahead of every surviving record) is the last durable seq.
	l := &Log{opt: opt, segments: segs, lastSeq: rep.baseSeq + uint64(len(rep.tail))}
	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(l.lastSeq + 1); err != nil {
			return nil, RecoveryInfo{}, err
		}
	} else {
		name := l.segments[len(l.segments)-1].Name
		f, err := os.OpenFile(filepath.Join(opt.Dir, name), os.O_RDWR, 0)
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, RecoveryInfo{}, fmt.Errorf("wal: %w", err)
		}
		l.active, l.actSize = f, size
	}
	l.metrics.Segments = len(l.segments)
	l.metrics.ActiveBytes = l.actSize
	l.metrics.LastSnapSeq = rep.baseSeq

	if opt.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, info, nil
}

// createSegmentLocked starts a fresh segment whose first record will be
// firstSeq; the caller holds mu (or is Open, single-threaded).
func (l *Log) createSegmentLocked(firstSeq uint64) error {
	name := segmentName(firstSeq)
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	// The header and the directory entry are synced regardless of policy —
	// rotation is rare and a missing segment header invalidates every
	// record after it.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.opt.Dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.actSize = int64(len(segmentMagic))
	l.segments = append(l.segments, Segment{Name: name, FirstSeq: firstSeq})
	l.metrics.Segments = len(l.segments)
	return nil
}

// recBufPool recycles the frame-encode buffers Append builds records in:
// the commit hot path appends one record per batch, and without the pool
// every commit pays two allocations (payload + frame) that die immediately
// after the write syscall.
var recBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// Append logs one committed batch. Under SyncAlways it returns only after
// the record is fsynced — callers release commit waiters after Append, so
// an acknowledged batch survives a crash. Sequence numbers must increase by
// exactly 1.
func (l *Log) Append(seq uint64, changes []model.Change) error {
	// Build the frame in a pooled buffer: header placeholder, payload,
	// then the length/CRC backfilled over the placeholder.
	bufp := recBufPool.Get().(*[]byte)
	defer func() {
		*bufp = (*bufp)[:0]
		recBufPool.Put(bufp)
	}()
	var hdrZero [recHeaderSize]byte
	buf := append((*bufp)[:0], hdrZero[:]...)
	buf, err := encodePayload(buf, seq, changes)
	if err != nil {
		return err
	}
	fillFrameHeader(buf)
	rec := buf
	*bufp = buf

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.err != nil {
		return fmt.Errorf("wal: log failed earlier: %w", l.err)
	}
	if seq != l.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d out of order (last %d)", seq, l.lastSeq)
	}
	if l.actSize >= l.opt.SegmentBytes && l.actSize > int64(len(segmentMagic)) {
		if err := l.rotateLocked(seq); err != nil {
			l.err = err
			return err
		}
	}
	if _, err := l.active.Write(rec); err != nil {
		l.err = err
		return fmt.Errorf("wal: append: %w", err)
	}
	l.actSize += int64(len(rec))
	l.dirty = true
	cur := &l.segments[len(l.segments)-1]
	cur.LastSeq = seq
	cur.Records++
	l.lastSeq = seq
	l.metrics.Appends++
	l.metrics.AppendedBytes += int64(len(rec))
	l.metrics.ActiveBytes = l.actSize
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.err = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and starts a new
// one named by the next sequence number.
func (l *Log) rotateLocked(nextSeq uint64) error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	l.metrics.Rotations++
	return l.createSegmentLocked(nextSeq)
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.metrics.Fsyncs++
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.active != nil {
				if err := l.syncLocked(); err != nil {
					l.metrics.SyncErrors++
					if l.err == nil {
						l.err = err
					}
				}
			}
			l.mu.Unlock()
		}
	}
}

// WriteSnapshotStream atomically persists the model state view holds, as
// of sequence number seq (replaceFile: temp file, fsync, rename, directory
// fsync) together with meta, an opaque caller value (the server stores its
// committed-changes counter there), then trims snapshots and sealed
// segments the recovery procedure no longer needs. The two newest
// snapshots are kept so a latent corruption of the newest still leaves a
// recovery point. It encodes straight to the temp file through a bounded
// buffer (Options.SnapshotChunkBytes), reading view (a *model.Snapshot, or
// a State's *model.View) in place. It is safe to call concurrently with
// Append — the snapshot writes to its own file and only takes the log's
// lock to register itself and for the final metrics/trim bookkeeping —
// which is what lets a serving writer hand a copy-on-write view to a
// background goroutine and keep committing while the encode is in flight. A snapshot below the compacted part of the
// log is refused: it could split a rewritten segment.
//
// onChunk, when non-nil, is invoked after every flushed chunk with the
// bytes written so far; returning a non-nil error aborts the write (the
// temp file is removed, nothing is renamed into place) and is returned
// wrapped in ErrSnapshotAborted when it is that sentinel.
func (l *Log) WriteSnapshotStream(seq, meta uint64, view Entities, onChunk func(written int) error) error {
	l.mu.Lock()
	if seq < l.compactedSeq {
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot at seq %d is older than the log compacted through seq %d", seq, l.compactedSeq)
	}
	l.writing = append(l.writing, seq)
	l.mu.Unlock()

	size, err := replaceFile(filepath.Join(l.opt.Dir, snapshotName(seq)), ".tmp", func(w io.Writer) error {
		return encodeSnapshotStream(w, seq, meta, view, l.opt.SnapshotChunkBytes, onChunk)
	})

	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	i := slices.Index(l.writing, seq)
	l.writing = slices.Delete(l.writing, i, i+1)
	if err != nil {
		return err
	}
	l.metrics.Snapshots++
	l.metrics.SnapshotBytes = size
	l.metrics.LastSnapSeq = seq
	l.trimLocked(seq)
	return nil
}

// ErrSnapshotAborted is the conventional error an onChunk callback returns
// to cancel an in-flight WriteSnapshotStream (e.g. on shutdown): the write
// is abandoned cleanly and the caller can distinguish cancellation from a
// real failure.
var ErrSnapshotAborted = errors.New("wal: snapshot aborted")

// trimLocked deletes snapshots older than the two newest, then sealed
// segments no retained snapshot could ever need. Because recovery falls
// back to the *older* retained snapshot when the newest fails its CRC,
// segments are trimmed only up to that older snapshot's sequence number —
// trimming to the newest would tear a hole in the fallback's replay tail
// and turn a single corrupt snapshot file into lost commits.
func (l *Log) trimLocked(seq uint64) {
	names, err := listSeqFiles(l.opt.Dir, "snap-", ".snap")
	if err != nil {
		return
	}
	if len(names) > 2 {
		for _, name := range names[:len(names)-2] {
			_ = os.Remove(filepath.Join(l.opt.Dir, name))
		}
		names = names[len(names)-2:]
	}
	if len(names) < 2 {
		return // no fallback snapshot yet: every segment may still be needed
	}
	safeSeq, _ := parseSeqName(names[0], "snap-", ".snap")
	if safeSeq > seq {
		return
	}
	// The last segment is the active one and is never trimmed.
	kept := l.segments[:0]
	for i, m := range l.segments {
		if i < len(l.segments)-1 && m.Records > 0 && m.LastSeq <= safeSeq {
			if os.Remove(filepath.Join(l.opt.Dir, m.Name)) == nil {
				l.metrics.TrimmedSegs++
				continue
			}
		}
		kept = append(kept, m)
	}
	l.segments = kept
	l.metrics.Segments = len(l.segments)
}

// Metrics returns a copy of the log's counters. Safe from any goroutine.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.metrics
}

// LastSeq reports the highest durable (appended or recovered) sequence
// number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Close flushes and fsyncs pending appends, then closes the log.
// Idempotent.
func (l *Log) Close() error {
	return l.close(true)
}

// Abandon closes the log's file handles without flushing — simulating the
// on-disk state a crash leaves behind. Tests use it to exercise recovery;
// production code wants Close.
func (l *Log) Abandon() {
	_ = l.close(false)
}

func (l *Log) close(sync bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.active != nil {
		if sync && l.dirty {
			if serr := l.active.Sync(); serr != nil && err == nil {
				err = serr
			} else if serr == nil {
				l.metrics.Fsyncs++
			}
		}
		if cerr := l.active.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}

// replaceFile atomically puts what write produces at path: it writes
// path+tmpSuffix, fsyncs it, renames it over path and fsyncs the
// directory, so a crash leaves the old file or the whole new one, never a
// part. On failure the temp file is removed. It returns the new size.
func replaceFile(path, tmpSuffix string, write func(io.Writer) error) (int64, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	var size int64
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return 0, fmt.Errorf("wal: replace %s: %w", filepath.Base(path), err)
	}
	return size, syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
