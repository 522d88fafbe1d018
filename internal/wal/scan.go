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

	"repro/internal/model"
)

// One read-only reading of a durability directory. Open, Verify (cmd/ttcwal),
// the snapshot trim and compaction all decide from it: the files in
// sequence order, each segment's record range and damage, and the recovery
// rule (replayTail) — stated once, so the offline verdict and the server's
// start-up never disagree.

// Segment is one wal-*.seg file: what a scan found in it, or, for the
// segments of an open Log, what has been appended to it.
type Segment struct {
	Name    string
	Bytes   int64
	Records int
	// FirstSeq/LastSeq span the intact records (meaningless when Records
	// is 0).
	FirstSeq, LastSeq uint64
	// Err describes why the scan stopped early ("" when the segment is
	// clean); Offset is where.
	Err    string
	Offset int64
	// Interior marks a complete record frame that failed its checksum or
	// decoding with more bytes following it. A torn write — the only
	// damage a crash can cause — always extends to end of file, so an
	// interior failure is corruption of an acknowledged commit: Open
	// refuses to truncate it (that would silently drop the intact records
	// after it), unlike a genuine tail tear.
	Interior bool

	validEnd int64 // offset past the last intact record
}

// splitBy reports whether a snapshot at one of seqs would make recovery
// replay only part of the segment — some of its records, not all or none.
// Compaction keeps a segment's net effect, which is then no longer what
// recovery replays, so it leaves such a segment as written.
func (s *Segment) splitBy(seqs []uint64) bool {
	for _, seq := range seqs {
		if s.Records > 0 && s.FirstSeq <= seq && seq < s.LastSeq {
			return true
		}
	}
	return false
}

// SnapshotReport is one snap-*.snap file. Seq is the one in its name; Bytes
// and Err are set only for decoded files (Open decodes newest first and
// stops at the first valid one, Verify decodes all).
type SnapshotReport struct {
	Name  string
	Bytes int64
	Seq   uint64
	// Err is "" when the snapshot decodes cleanly (or was not decoded).
	Err string
}

// Report is a scan of a durability directory.
type Report struct {
	Segments  []Segment
	Snapshots []SnapshotReport
	// Batches counts intact records across all segments.
	Batches int
	// FirstSeq/LastSeq span the intact records (0/0 when there are none).
	FirstSeq, LastSeq uint64
	// GapErr is non-empty when the records after the base snapshot do not
	// run contiguously from it — exactly when Open refuses to start.
	GapErr string

	// The recovery plan: the base snapshot (the newest that decodes; nil
	// when none does), the batches above its seq in log order, and the
	// first place they break contiguity.
	base     *model.Snapshot
	baseSeq  uint64
	baseMeta uint64
	tail     []Batch
	gap      error
}

// Damaged reports whether any file failed verification or the history has
// a gap. A damaged final segment is what Open repairs by truncation; damage
// anywhere else means lost commits.
func (r *Report) Damaged() bool {
	for _, s := range r.Segments {
		if s.Err != "" {
			return true
		}
	}
	for _, s := range r.Snapshots {
		if s.Err != "" {
			return true
		}
	}
	return r.GapErr != ""
}

// Verify inspects dir read-only — unlike Open it never truncates or
// repairs — and reports per-file health. When visit is non-nil it is
// called for every intact record in log order (for ttcwal -dump). Like
// Open it holds the replay tail in memory. Only filesystem-level failures
// return an error; corruption is reported in the Report.
func Verify(dir string, visit func(segment string, offset int64, b Batch)) (*Report, error) {
	return scanDir(dir, true, visit)
}

// scanDir reads dir without modifying it. It decodes snapshots newest
// first until one is valid (all of them when decodeAll), then scans every
// segment, handing each intact record to the recovery rule and to visit.
func scanDir(dir string, decodeAll bool, visit func(segment string, offset int64, b Batch)) (*Report, error) {
	rep := &Report{}
	snapNames, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	for _, name := range snapNames {
		seq, _ := parseSeqName(name, "snap-", ".snap")
		rep.Snapshots = append(rep.Snapshots, SnapshotReport{Name: name, Seq: seq})
	}
	for i := len(rep.Snapshots) - 1; i >= 0 && (decodeAll || rep.base == nil); i-- {
		sr := &rep.Snapshots[i]
		data, err := os.ReadFile(filepath.Join(dir, sr.Name))
		if err != nil {
			sr.Err = err.Error()
			continue
		}
		sr.Bytes = int64(len(data))
		seq, meta, s, err := decodeSnapshot(data)
		if err == nil && seq != sr.Seq {
			err = fmt.Errorf("wal: snapshot named seq %d holds seq %d", sr.Seq, seq)
		}
		if err != nil {
			sr.Err = err.Error()
			continue // fall back to the previous snapshot
		}
		if rep.base == nil {
			rep.base, rep.baseSeq, rep.baseMeta = s, seq, meta
		}
	}

	segNames, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		return nil, err
	}
	for _, name := range segNames {
		seg, err := scanSegment(dir, name, func(off int64, b Batch) {
			rep.replayTail(name, off, b)
			if visit != nil {
				visit(name, off, b)
			}
		})
		if err != nil {
			return nil, err
		}
		if seg.Records > 0 {
			if rep.Batches == 0 {
				rep.FirstSeq = seg.FirstSeq
			}
			rep.LastSeq = seg.LastSeq
			rep.Batches += seg.Records
		}
		rep.Segments = append(rep.Segments, seg)
	}
	if rep.gap != nil {
		rep.GapErr = rep.gap.Error()
	}
	return rep, nil
}

// replayTail is the recovery rule, the only place it is stated: recovery
// loads the base snapshot and replays every intact record above its seq,
// in log order, and those records must run contiguously from base+1 —
// anything else means segments or snapshots were lost, and Open refuses.
// Records at or below the base are history the snapshot already holds.
func (r *Report) replayTail(segment string, off int64, b Batch) {
	if b.Seq <= r.baseSeq {
		return
	}
	if want := r.baseSeq + uint64(len(r.tail)) + 1; b.Seq != want && r.gap == nil {
		r.gap = fmt.Errorf("replay tail needs batch seq %d but %s holds seq %d at offset %d (base snapshot at seq %d); the log is missing committed data",
			want, segment, b.Seq, off, r.baseSeq)
	}
	r.tail = append(r.tail, b)
}

// scanSegment reads one segment, invoking visit for every intact record.
// The returned Segment records where and why the scan stopped early when
// the file does not end cleanly; only an io-level failure reading the file
// is returned as an error.
func scanSegment(dir, name string, visit func(off int64, b Batch)) (Segment, error) {
	seg := Segment{Name: name}
	path := filepath.Join(dir, name)
	f, err := os.Open(path)
	if err != nil {
		return seg, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return seg, fmt.Errorf("wal: %w", err)
	}
	seg.Bytes = st.Size()
	damaged := func(off int64, interior bool, err error) (Segment, error) {
		seg.Err, seg.Offset, seg.Interior = err.Error(), off, interior
		return seg, nil
	}

	magic := make([]byte, len(segmentMagic))
	if n, err := io.ReadFull(f, magic); err != nil {
		// Shorter than the header: a crash between create and header write.
		return damaged(int64(n), false, errors.New("segment shorter than its header"))
	}
	if string(magic) != segmentMagic {
		return damaged(0, false, fmt.Errorf("bad segment magic %q", magic))
	}

	seg.validEnd = int64(len(segmentMagic))
	hdr := make([]byte, recHeaderSize)
	for {
		off := seg.validEnd
		n, err := io.ReadFull(f, hdr)
		if err == io.EOF {
			return seg, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return damaged(off+int64(n), false, errors.New("torn record header"))
		}
		if err != nil {
			return seg, fmt.Errorf("wal: read %s: %w", path, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordLen {
			// The length field itself is damaged; the frame extent is
			// unknowable, so this is indistinguishable from a torn header.
			return damaged(off, false, fmt.Errorf("record length %d exceeds limit", length))
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return damaged(off, false, errors.New("torn record payload"))
		}
		frameEnd := off + recHeaderSize + int64(length)
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return damaged(off, frameEnd < seg.Bytes, errors.New("record checksum mismatch"))
		}
		b, err := decodePayload(payload)
		if err != nil {
			return damaged(off, frameEnd < seg.Bytes, err)
		}
		if seg.Records == 0 {
			seg.FirstSeq = b.Seq
		}
		seg.LastSeq = b.Seq
		seg.Records++
		seg.validEnd = frameEnd
		visit(off, b)
	}
}

// snapshotSeqs lists the sequence numbers of the directory's snapshot
// files, ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	names, err := listSeqFiles(dir, "snap-", ".snap")
	seqs := make([]uint64, len(names))
	for i, name := range names {
		seqs[i], _ = parseSeqName(name, "snap-", ".snap")
	}
	return seqs, err
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

// parseSeqName extracts the sequence number from wal-*.seg / snap-*.snap
// file names.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}
