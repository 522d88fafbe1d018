package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestWriteSnapshotStreamRoundTrip: a streamed snapshot decodes to exactly
// the encoded model, through the directory scan like real recovery.
func TestWriteSnapshotStreamRoundTrip(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff, SnapshotChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	chunks := 0
	if err := l.WriteSnapshotStream(7, 42, d.Snapshot, func(written int) error {
		chunks++
		if written <= 0 {
			t.Errorf("onChunk reported %d bytes written", written)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("only %d chunks for a %d-byte budget — not streaming", chunks, 4096)
	}

	s, seq, meta := latestSnapshot(t, dir)
	if s == nil {
		t.Fatal("no snapshot loads")
	}
	if seq != 7 || meta != 42 {
		t.Fatalf("seq/meta = %d/%d, want 7/42", seq, meta)
	}
	if !reflect.DeepEqual(s, d.Snapshot) {
		t.Fatal("streamed snapshot does not round-trip the model")
	}
	if m := l.Metrics(); m.Snapshots != 1 || m.LastSnapSeq != 7 || m.SnapshotBytes == 0 {
		t.Fatalf("metrics after stream: %+v", m)
	}
}

// TestWriteSnapshotStreamEmptyModel pins the degenerate case (zero
// entities, single chunk).
func TestWriteSnapshotStreamEmptyModel(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshotStream(1, 0, &model.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	s, seq, _ := latestSnapshot(t, dir)
	if s == nil || seq != 1 {
		t.Fatalf("loaded %v at seq %d", s, seq)
	}
	if !reflect.DeepEqual(s, &model.Snapshot{}) {
		t.Fatalf("empty model round-trips to %+v", s)
	}
}

// TestSnapshotV2CorruptionFallsBack flips one byte in a streamed snapshot:
// a chunk CRC must fail the decode and recovery must fall back to the
// older snapshot.
func TestSnapshotV2CorruptionFallsBack(t *testing.T) {
	old := &model.Snapshot{Users: []model.User{{ID: 1}}}
	newer := &model.Snapshot{Users: []model.User{{ID: 1}, {ID: 2}}}
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotStream(1, 0, old, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotStream(2, 0, newer, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, snapshotName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // damage a chunk body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, seq, _ := latestSnapshot(t, dir)
	if seq != 1 || !reflect.DeepEqual(s, old) {
		t.Fatalf("fell back to seq %d %+v, want the snapshot at seq 1", seq, s)
	}
}

// TestSnapshotV2Truncation: a v2 image cut anywhere before its terminator
// must refuse to decode (the terminator is the completeness proof).
func TestSnapshotV2Truncation(t *testing.T) {
	var buf bytes.Buffer
	s := &model.Snapshot{Users: []model.User{{ID: 5}}, Posts: []model.Post{{ID: 1, Timestamp: 2}}}
	if err := encodeSnapshotStream(&buf, 3, 4, s, 64, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if seq, meta, got, err := decodeSnapshot(data); err != nil || seq != 3 || meta != 4 || !reflect.DeepEqual(got, s) {
		t.Fatalf("intact decode failed: seq=%d meta=%d err=%v", seq, meta, err)
	}
	for _, cut := range []int{len(data) - 1, len(data) - 8, len(data) / 2, len(snapshotMagic) + 10} {
		if _, _, _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Errorf("decode accepted an image truncated to %d of %d bytes", cut, len(data))
		}
	}
	if _, _, _, err := decodeSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("decode accepted trailing garbage after the terminator")
	}
}

// TestWriteSnapshotStreamAbort: an onChunk error (the shutdown sentinel)
// must abandon the write — no visible snapshot, no leftover temp file.
func TestWriteSnapshotStreamAbort(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff, SnapshotChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.WriteSnapshotStream(5, 0, d.Snapshot, func(int) error { return ErrSnapshotAborted })
	if !errors.Is(err, ErrSnapshotAborted) {
		t.Fatalf("err = %v, want ErrSnapshotAborted", err)
	}
	if s, _, _ := latestSnapshot(t, dir); s != nil {
		t.Fatal("aborted stream left a visible snapshot")
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("aborted stream left temp files: %v", tmps)
	}
	if m := l.Metrics(); m.Snapshots != 0 {
		t.Fatalf("aborted stream counted as a snapshot: %+v", m)
	}
}

// latestSnapshot returns the snapshot recovery would load from dir (nil
// when none decodes), with its seq and meta.
func latestSnapshot(t *testing.T, dir string) (*model.Snapshot, uint64, uint64) {
	t.Helper()
	rep, err := scanDir(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep.base, rep.baseSeq, rep.baseMeta
}

// TestAppendPooledBufferReuse sanity-checks the pooled encode path against
// the framed bytes scanSegment expects: append a few batches, reopen, and
// the recovered tail must match change-for-change (the pool must never
// leak bytes between records).
func TestAppendPooledBufferReuse(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := uint64(1); i <= 20; i++ {
		changes := testChanges(int64(i))
		if err := l.Append(i, changes); err != nil {
			t.Fatal(err)
		}
		want = append(want, Batch{Seq: i, Changes: append([]model.Change(nil), changes...)})
	}
	l.Close()

	_, rec, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Batches, want) {
		t.Fatal("recovered batches differ from appended ones")
	}
}
