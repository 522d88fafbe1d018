package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// TestVerifyFlagsExactlyWhatOpenRefuses builds one directory for each way
// Open refuses to start, and one it accepts although the log has a hole:
// Verify must flag the first three and pass the last, because both read
// the directory through the same scan and replay rule.
func TestVerifyFlagsExactlyWhatOpenRefuses(t *testing.T) {
	// Six batches of testChanges in 256-byte segments: two records per
	// segment, wal-1 (seq 1..2), wal-3 (3..4) and wal-5 (5..6).
	build := func(t *testing.T, snapSeq uint64) string {
		dir := t.TempDir()
		l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 256})
		for i := int64(1); i <= 6; i++ {
			if err := l.Append(uint64(i), testChanges(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteSnapshotStream(snapSeq, 0, &model.Snapshot{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if names, _ := listSeqFiles(dir, "wal-", ".seg"); len(names) != 3 {
			t.Fatalf("fixture has segments %v, want 3", names)
		}
		return dir
	}
	flip := func(t *testing.T, path string, off func(size int) int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off(len(data))] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		snapSeq uint64
		damage  func(t *testing.T, dir string)
		refused bool
		gap     bool
	}{
		{"non-final segment torn", 1, func(t *testing.T, dir string) {
			flip(t, filepath.Join(dir, segmentName(1)), func(size int) int { return size - 3 })
		}, true, true},
		{"interior corruption", 1, func(t *testing.T, dir string) {
			flip(t, filepath.Join(dir, segmentName(5)), func(int) int { return len(segmentMagic) + recHeaderSize + 2 })
		}, true, false},
		{"gap after the base snapshot", 2, func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, segmentName(3))); err != nil {
				t.Fatal(err)
			}
		}, true, true},
		{"gap only below the base snapshot", 4, func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, segmentName(3))); err != nil {
				t.Fatal(err)
			}
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t, tc.snapSeq)
			tc.damage(t, dir)
			rep, err := Verify(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := Open(Options{Dir: dir})
			if l != nil {
				l.Close()
			}
			if refused := err != nil; refused != tc.refused {
				t.Fatalf("Open refused = %v (%v), want %v", refused, err, tc.refused)
			}
			if rep.Damaged() != tc.refused {
				t.Fatalf("Verify damaged = %v, want %v: %+v", rep.Damaged(), tc.refused, rep)
			}
			if (rep.GapErr != "") != tc.gap {
				t.Fatalf("Verify gap %q, want gap = %v", rep.GapErr, tc.gap)
			}
		})
	}
}
