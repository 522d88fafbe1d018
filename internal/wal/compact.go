package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"repro/internal/model"
)

// Compaction rewrites sealed write-ahead-log segments under change-key
// supersession (model.CompactionMask): an add+remove pair on the same
// canonical key nets out, duplicate node adds collapse, and friendship
// endpoints are normalized — so recovery replays the history's net effect
// instead of every pair of operations ever acknowledged. The structure of
// the log is preserved exactly: every record keeps its sequence number (a
// fully superseded batch becomes an empty record, keeping the replay tail
// gapless for the snapshot-fallback contiguity check) and the active
// segment is never touched.
//
// Supersession is segment-local by design: each rewritten segment preserves
// its own net effect, so every individual rewrite-then-swap is
// state-preserving on its own and a crash between swaps — or between the
// temp-file write and the rename — leaves a history that recovers to the
// same final state. Cross-segment supersession would make the swap sequence
// non-atomic as a whole: a pair dropped across two segments with only one
// swap surviving a crash would corrupt acknowledged history.
//
// Supersession keeps a segment's net effect, which is what recovery
// replays only when it replays the whole segment or none of it. A snapshot
// inside the segment — seq in [FirstSeq, LastSeq) — makes recovery replay
// a suffix, so a segment any snapshot on disk or in flight splits is left
// as written (Segment.splitBy).
//
// Each rewrite goes through replaceFile with the same per-record CRC-32C
// framing the appender writes — the atomic-replace snapshots use too.

// CompactionReport summarizes one compaction pass.
type CompactionReport struct {
	// SealedSegments is the number of sealed segments examined;
	// CompactedSegments how many were (or, in a dry run, would be)
	// rewritten.
	SealedSegments    int `json:"sealedSegments"`
	CompactedSegments int `json:"compactedSegments"`
	// Batches counts the records scanned; every one survives (possibly
	// emptied) so sequence numbers stay contiguous.
	Batches int `json:"batches"`
	// ChangesIn/ChangesOut count the changes before and after supersession,
	// split into inserts and removals: a superseded add+remove pair
	// disappears from both columns.
	ChangesIn   int `json:"changesIn"`
	InsertsIn   int `json:"insertsIn"`
	RemovalsIn  int `json:"removalsIn"`
	ChangesOut  int `json:"changesOut"`
	InsertsOut  int `json:"insertsOut"`
	RemovalsOut int `json:"removalsOut"`
	// BytesIn/BytesOut are the sealed segments' file sizes before and after
	// (for unrewritten segments the two sides are equal).
	BytesIn  int64 `json:"bytesIn"`
	BytesOut int64 `json:"bytesOut"`
	// DryRun marks a pass that only measured and swapped nothing.
	DryRun bool `json:"dryRun"`
}

// Compact rewrites the log's sealed segments under change-key supersession.
// It must be called from the committing goroutine (the one calling
// Append); appends to the active segment continue unaffected, as sealed
// segments are immutable until trimmed or compacted. The pass holds
// maintMu throughout so a background snapshot completing mid-pass cannot
// trim a sealed segment out from under the rewrite (the swap would
// resurrect the deleted file and tear a hole recovery refuses).
func (l *Log) Compact() (CompactionReport, error) {
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return CompactionReport{}, fmt.Errorf("wal: log is closed")
	}
	// Everything but the active (last) segment is sealed and immutable; the
	// scan and rewrite run outside the lock. Only segments sealed since the
	// last pass are claimed — without that, a long-running server's
	// periodic passes would re-read the whole sealed history every time.
	var sealed []string
	for _, seg := range l.segments[:len(l.segments)-1] {
		if seg.Records > 0 && seg.LastSeq > l.compactedSeq {
			sealed = append(sealed, seg.Name)
			l.compactedSeq = seg.LastSeq
		}
	}
	snaps := slices.Clone(l.writing)
	l.mu.Unlock()

	onDisk, err := snapshotSeqs(l.opt.Dir)
	if err != nil {
		return CompactionReport{}, err
	}
	rep, err := compactSegments(l.opt.Dir, sealed, append(snaps, onDisk...), false)
	if err == nil {
		l.mu.Lock()
		l.metrics.Compactions++
		l.metrics.CompactedSegs += int64(rep.CompactedSegments)
		l.metrics.CompactedBytes += rep.BytesIn - rep.BytesOut
		l.mu.Unlock()
	}
	return rep, err
}

// CompactDir compacts a durability directory offline (no server running):
// all segments but the newest — which the next server start will reopen for
// appends — are rewritten. With dryRun the pass only measures what
// compaction would save and modifies nothing.
func CompactDir(dir string, dryRun bool) (CompactionReport, error) {
	names, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		return CompactionReport{}, err
	}
	snaps, err := snapshotSeqs(dir)
	if err != nil {
		return CompactionReport{}, err
	}
	if len(names) > 0 {
		names = names[:len(names)-1]
	}
	return compactSegments(dir, names, snaps, dryRun)
}

// compactSegments compacts the named sealed segments, leaving as written
// every one that a snapshot in snaps splits.
func compactSegments(dir string, names []string, snaps []uint64, dryRun bool) (CompactionReport, error) {
	rep := CompactionReport{DryRun: dryRun}
	for _, name := range names {
		if err := compactOne(dir, name, snaps, dryRun, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// compactOne scans one sealed segment, applies the supersession mask, and —
// when changes drop out, no snapshot splits the segment and this is not a
// dry run — atomically replaces the file with the rewritten records.
func compactOne(dir, name string, snaps []uint64, dryRun bool, rep *CompactionReport) error {
	var batches []Batch
	seg, err := scanSegment(dir, name, func(off int64, b Batch) {
		batches = append(batches, b)
	})
	if err != nil {
		return err
	}
	if seg.Err != "" {
		// Sealed segments must scan cleanly: damage here is lost commits
		// (Open refuses it too), and compaction must never paper over it by
		// rewriting what remains.
		return fmt.Errorf("wal: sealed segment %s is damaged at offset %d (%s); refusing to compact", name, seg.Offset, seg.Err)
	}
	rep.SealedSegments++
	rep.BytesIn += seg.Bytes

	// Flatten the segment's changes (keeping each one's batch), normalize,
	// and apply the shared supersession decision.
	var flat []model.Change
	batchOf := make([]int, 0)
	for bi := range batches {
		for _, ch := range batches[bi].Changes {
			flat = append(flat, ch)
			batchOf = append(batchOf, bi)
		}
	}
	cs := model.ChangeSet{Changes: flat}
	cs.Normalize()
	rep.Batches += len(batches)
	rep.ChangesIn += cs.Size()
	rep.InsertsIn += cs.InsertCount()
	rep.RemovalsIn += cs.RemovalCount()

	mask := model.CompactionMask(flat)
	if mask == nil || seg.splitBy(snaps) {
		// Nothing collapses, or recovery may replay only part of the
		// segment; it stays as is.
		rep.ChangesOut += cs.Size()
		rep.InsertsOut += cs.InsertCount()
		rep.RemovalsOut += cs.RemovalCount()
		rep.BytesOut += seg.Bytes
		return nil
	}
	kept := make([][]model.Change, len(batches))
	out := model.ChangeSet{}
	for i, keep := range mask {
		if keep {
			kept[batchOf[i]] = append(kept[batchOf[i]], flat[i])
			out.Changes = append(out.Changes, flat[i])
		}
	}
	rep.ChangesOut += out.Size()
	rep.InsertsOut += out.InsertCount()
	rep.RemovalsOut += out.RemovalCount()
	rep.CompactedSegments++

	data := make([]byte, 0, seg.Bytes)
	data = append(data, segmentMagic...)
	for bi := range batches {
		payload, err := encodePayload(nil, batches[bi].Seq, kept[bi])
		if err != nil {
			return err
		}
		data = append(data, frameRecord(payload)...)
	}
	rep.BytesOut += int64(len(data))
	if dryRun {
		return nil
	}
	_, err = replaceFile(filepath.Join(dir, name), ".compact", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}
