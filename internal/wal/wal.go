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
//	snap-<seq>.snap      model snapshots, written atomically (tmp + rename)
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
// Open is the single entry point: it repairs the tail, loads the newest
// valid snapshot, decodes the batches committed after it, verifies the
// sequence numbers are contiguous, and returns the log ready for appends.
// Append and Compact are intended for the one committing goroutine;
// WriteSnapshotStream may run beside it on another goroutine, and Metrics
// and Sync are safe from any goroutine.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// String names the policy (the inverse of ParseSyncPolicy).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the ttcserve -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
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

// Metrics is a point-in-time view of the log's counters, served by /stats.
type Metrics struct {
	Appends       int64 // records appended this process
	AppendedBytes int64 // framed bytes appended this process
	Fsyncs        int64 // explicit fsyncs of the active segment
	Rotations     int64 // segment rotations
	Segments      int   // live segment files
	ActiveBytes   int64 // size of the active segment
	Snapshots     int64 // snapshots written this process
	SnapshotBytes int64 // bytes of the last written snapshot
	LastSnapSeq   uint64
	TrimmedSegs   int64 // segments deleted by snapshot trims
	SyncErrors    int64 // background interval-sync failures

	Compactions    int64 // change-key compaction passes this process
	CompactedSegs  int64 // sealed segments rewritten by compaction
	CompactedBytes int64 // bytes reclaimed by compaction
}

// segmentMeta tracks one live segment file (its first sequence number is
// embedded in the name).
type segmentMeta struct {
	name    string
	lastSeq uint64
	records int
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
	segments []segmentMeta // ascending; last is active
	lastSeq  uint64        // highest appended/recovered sequence number
	dirty    bool          // unsynced appends
	err      error         // sticky write/sync failure
	closed   bool
	metrics  Metrics

	// compactedThrough is the name of the newest sealed segment a Compact
	// pass has already processed: sealed segments are immutable and
	// segment-local compaction is idempotent, so re-scanning them could
	// never shrink them further and later passes skip ahead of this mark.
	compactedThrough string

	stopSync chan struct{} // interval-sync goroutine shutdown
	syncDone chan struct{}
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstSeq)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

// parseSeqName extracts the sequence number from wal-*.seg / snap-*.snap
// file names.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
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

	info := RecoveryInfo{}
	snap, snapSeq, snapMeta, ok, err := loadLatestSnapshot(opt.Dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if ok {
		info.HasSnapshot, info.Snapshot = true, snap
		info.SnapshotSeq, info.SnapshotMeta = snapSeq, snapMeta
	}

	segNames, err := listSeqFiles(opt.Dir, "wal-", ".seg")
	if err != nil {
		return nil, RecoveryInfo{}, err
	}

	l := &Log{opt: opt}
	for i, name := range segNames {
		path := filepath.Join(opt.Dir, name)
		meta := segmentMeta{name: name}
		last := i == len(segNames)-1
		validEnd, torn, err := scanSegment(path, func(off int64, b Batch) {
			meta.lastSeq = b.Seq
			meta.records++
			if b.Seq > info.SnapshotSeq {
				info.Batches = append(info.Batches, b)
			}
			if b.Seq > l.lastSeq {
				l.lastSeq = b.Seq
			}
		})
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		if torn != nil {
			if !last || torn.Interior {
				return nil, RecoveryInfo{}, fmt.Errorf(
					"wal: segment %s is corrupt at offset %d (%v) with committed records after it; refusing to drop acknowledged data — restore the file or inspect with ttcwal", name, torn.Offset, torn.Err)
			}
			st, err := os.Stat(path)
			if err != nil {
				return nil, RecoveryInfo{}, fmt.Errorf("wal: %w", err)
			}
			info.TruncatedBytes = st.Size() - validEnd
			if validEnd < int64(len(segmentMagic)) {
				// Not even the segment header survived (crash between create
				// and header write, or header corruption with no intact
				// records): drop the file; a fresh segment replaces it.
				if err := os.Remove(path); err != nil {
					return nil, RecoveryInfo{}, fmt.Errorf("wal: remove headerless segment %s: %w", name, err)
				}
				continue
			}
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, RecoveryInfo{}, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
		}
		l.segments = append(l.segments, meta)
	}

	// The replay tail must be gapless and duplicate-free on top of the
	// snapshot; anything else means segments or snapshots were lost.
	want := info.SnapshotSeq + 1
	for _, b := range info.Batches {
		if b.Seq != want {
			return nil, RecoveryInfo{}, fmt.Errorf(
				"wal: replay tail needs batch seq %d but found %d (snapshot at %d); the log is missing committed data", want, b.Seq, info.SnapshotSeq)
		}
		want++
	}
	if l.lastSeq < info.SnapshotSeq {
		// The snapshot is ahead of every surviving record (e.g. a clean
		// shutdown wrote a final snapshot and trims removed the segments).
		l.lastSeq = info.SnapshotSeq
	}

	// Open (or create) the active segment for appends.
	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(l.lastSeq + 1); err != nil {
			return nil, RecoveryInfo{}, err
		}
	} else {
		name := l.segments[len(l.segments)-1].name
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
	if info.HasSnapshot {
		l.metrics.LastSnapSeq = info.SnapshotSeq
	}

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
	l.segments = append(l.segments, segmentMeta{name: name})
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
	cur.lastSeq = seq
	cur.records++
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

// Sync flushes unsynced appends to stable storage. Safe from any goroutine.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.active == nil {
		return nil
	}
	return l.syncLocked()
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

// WriteSnapshotStream atomically persists the full model state as of
// sequence number seq (write to a temp file, fsync, rename, fsync the
// directory) together with meta, an opaque caller value (the server stores
// its committed-changes counter there), then trims snapshots and sealed segments the recovery
// procedure no longer needs. The two newest snapshots are kept so a latent
// corruption of the newest still leaves a recovery point. It writes the
// chunked version-2 format, encoding straight to the temp file through a
// bounded buffer (Options.SnapshotChunkBytes) instead of materializing the
// whole image. It is safe to call concurrently with Append — the snapshot
// writes to its own file and only takes the log's lock for the final
// metrics/trim bookkeeping — which is what lets a serving writer hand a
// copy-on-write view to a background goroutine and keep committing while
// the encode is in flight.
//
// onChunk, when non-nil, is invoked after every flushed chunk with the
// bytes written so far; returning a non-nil error aborts the write (the
// temp file is removed, nothing is renamed into place) and is returned
// wrapped in ErrSnapshotAborted when it is that sentinel.
func (l *Log) WriteSnapshotStream(seq, meta uint64, view *model.Snapshot, onChunk func(written int) error) error {
	final := filepath.Join(l.opt.Dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	abort := func(err error) error {
		f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := encodeSnapshotStream(f, seq, meta, view, l.opt.SnapshotChunkBytes, onChunk); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("wal: %w", err))
	}
	st, err := f.Stat()
	if err != nil {
		return abort(fmt.Errorf("wal: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := syncDir(l.opt.Dir); err != nil {
		return err
	}

	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics.Snapshots++
	l.metrics.SnapshotBytes = st.Size()
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
	safeSeq, ok := parseSeqName(names[0], "snap-", ".snap")
	if !ok || safeSeq > seq {
		return
	}
	// The last segment is the active one and is never trimmed.
	kept := l.segments[:0]
	for i, m := range l.segments {
		if i < len(l.segments)-1 && m.records > 0 && m.lastSeq <= safeSeq {
			if os.Remove(filepath.Join(l.opt.Dir, m.name)) == nil {
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

// tornError describes where and why a segment scan stopped early.
type tornError struct {
	Offset int64
	Err    error
	// Interior marks a complete record frame that failed its checksum or
	// decoding with more bytes following it. A torn write — the only
	// damage a crash can cause — always extends to end of file, so an
	// interior failure is corruption of an acknowledged commit: Open
	// refuses to truncate it (that would silently drop the intact records
	// after it), unlike a genuine tail tear.
	Interior bool
}

// scanSegment reads one segment, invoking visit for every intact record.
// It returns the offset of the first byte past the last intact record and,
// when the segment does not end cleanly, a tornError describing the damage
// (an io-level failure reading the file itself is returned as err).
func scanSegment(path string, visit func(off int64, b Batch)) (validEnd int64, torn *tornError, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	size := st.Size()

	magic := make([]byte, len(segmentMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil {
		// Shorter than the header: a crash between create and header write.
		return 0, &tornError{Offset: int64(n), Err: errors.New("segment shorter than its header")}, nil
	}
	if string(magic) != segmentMagic {
		return 0, &tornError{Offset: 0, Err: fmt.Errorf("bad segment magic %q", magic)}, nil
	}

	off := int64(len(segmentMagic))
	hdr := make([]byte, recHeaderSize)
	for {
		n, err := io.ReadFull(f, hdr)
		if err == io.EOF {
			return off, nil, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return off, &tornError{Offset: off + int64(n), Err: errors.New("torn record header")}, nil
		}
		if err != nil {
			return off, nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordLen {
			// The length field itself is damaged; the frame extent is
			// unknowable, so this is indistinguishable from a torn header.
			return off, &tornError{Offset: off, Err: fmt.Errorf("record length %d exceeds limit", length)}, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return off, &tornError{Offset: off, Err: errors.New("torn record payload")}, nil
		}
		frameEnd := off + recHeaderSize + int64(length)
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return off, &tornError{Offset: off, Err: errors.New("record checksum mismatch"),
				Interior: frameEnd < size}, nil
		}
		b, err := decodePayload(payload)
		if err != nil {
			return off, &tornError{Offset: off, Err: err, Interior: frameEnd < size}, nil
		}
		visit(off, b)
		off = frameEnd
	}
}

// listSeqFiles returns the directory's prefix/suffix-matching file names in
// ascending sequence order (names embed zero-padded decimals, so the
// lexical sort is numeric).
func listSeqFiles(dir, prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
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
