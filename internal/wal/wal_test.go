package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// testChanges builds a batch exercising every change kind.
func testChanges(i int64) []model.Change {
	return []model.Change{
		{Kind: model.KindAddPost, Post: model.Post{ID: 100 + i, Timestamp: 7 * i}},
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 200 + i, Timestamp: i, ParentID: 100 + i, PostID: 100 + i}},
		{Kind: model.KindAddUser, User: model.User{ID: 300 + i}},
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 300 + i, User2: 301 + i}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 300 + i, CommentID: 200 + i}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 300 + i, User2: 301 + i}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: 300 + i, CommentID: 200 + i}},
	}
}

func mustOpen(t *testing.T, opt Options) (*Log, RecoveryInfo) {
	t.Helper()
	l, info, err := Open(opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", opt.Dir, err)
	}
	return l, info
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info := mustOpen(t, Options{Dir: dir, Sync: SyncOff})
	if info.HasSnapshot || len(info.Batches) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	const n = 10
	for i := int64(1); i <= n; i++ {
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, info2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if len(info2.Batches) != n {
		t.Fatalf("recovered %d batches, want %d", len(info2.Batches), n)
	}
	for i, b := range info2.Batches {
		want := Batch{Seq: uint64(i + 1), Changes: testChanges(int64(i + 1))}
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("batch %d: got %+v, want %+v", i, b, want)
		}
	}
	if info2.TruncatedBytes != 0 {
		t.Errorf("clean log reports %d truncated bytes", info2.TruncatedBytes)
	}
	// Appends continue from the recovered tail.
	if err := l2.Append(n+1, testChanges(n+1)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestAppendRejectsOutOfOrderSeq(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncOff})
	defer l.Close()
	if err := l.Append(1, testChanges(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, testChanges(3)); err == nil {
		t.Fatal("gap seq accepted")
	}
	if err := l.Append(1, testChanges(1)); err == nil {
		t.Fatal("duplicate seq accepted")
	}
}

func TestSegmentRotationAndTrim(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of records.
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 256})
	const n = 12
	for i := int64(1); i <= n; i++ {
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := l.Metrics()
	if m.Rotations == 0 || m.Segments < 2 {
		t.Fatalf("expected rotations with 256-byte segments, got %+v", m)
	}

	// Trimming is conservative: segments are deleted only up to the OLDER
	// retained snapshot, so recovery can still fall back to it if the
	// newest snapshot turns out corrupt. One snapshot alone trims nothing.
	snap := &model.Snapshot{Users: []model.User{{ID: 1}}}
	if err := l.WriteSnapshotStream(n/2, 3*n, snap, nil); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if m := l.Metrics(); m.TrimmedSegs != 0 {
		t.Errorf("a single snapshot (no fallback yet) trimmed %d segments", m.TrimmedSegs)
	}
	if err := l.WriteSnapshotStream(n, 3*n, snap, nil); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m = l.Metrics()
	if m.TrimmedSegs == 0 {
		t.Errorf("second snapshot trimmed no segments covered by the fallback: %+v", m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !info.HasSnapshot || info.SnapshotSeq != n {
		t.Fatalf("recovery: snapshot seq %d (has=%v), want %d", info.SnapshotSeq, info.HasSnapshot, n)
	}
	if len(info.Batches) != 0 {
		t.Fatalf("snapshot covers the log but %d batches recovered", len(info.Batches))
	}
	if !reflect.DeepEqual(info.Snapshot.Users, snap.Users) {
		t.Errorf("snapshot users: %+v", info.Snapshot.Users)
	}
	// The next append continues the history after the snapshot.
	if err := l2.Append(n+1, testChanges(99)); err != nil {
		t.Fatalf("append after snapshot-only recovery: %v", err)
	}
}

// lastSegment returns the newest wal-*.seg path.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

func TestTornTailIsTruncatedNotFatal(t *testing.T) {
	cases := []struct {
		name    string
		mutilat func(t *testing.T, path string)
	}{
		{"truncated mid-record", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped payload byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("\x13\x00\x00\x00garbage")); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
			const n = 5
			for i := int64(1); i <= n; i++ {
				if err := l.Append(uint64(i), testChanges(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Abandon() // crash: no clean close
			tc.mutilat(t, lastSegment(t, dir))

			l2, info := mustOpen(t, Options{Dir: dir})
			if info.TruncatedBytes == 0 {
				t.Error("no truncation reported for a damaged tail")
			}
			// All commits before the damaged record survive. The damaged one
			// (if any) is dropped — that is the torn-write contract: only a
			// record never acknowledged as durable can be affected.
			if len(info.Batches) < n-1 {
				t.Fatalf("recovered %d batches, want >= %d", len(info.Batches), n-1)
			}
			for i, b := range info.Batches {
				if b.Seq != uint64(i+1) {
					t.Fatalf("batch %d has seq %d", i, b.Seq)
				}
			}
			// The repaired log accepts appends at the right seq.
			next := uint64(len(info.Batches)) + 1
			if err := l2.Append(next, testChanges(int64(next))); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			l2.Close()
		})
	}
}

// TestInteriorCorruptionInFinalSegmentIsFatal distinguishes a torn tail
// from a bit flip inside the final segment: a damaged record with intact
// records AFTER it is an acknowledged commit, and Open must refuse to
// truncate it away rather than silently dropping the records behind it.
func TestInteriorCorruptionInFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	const n = 5
	var offsets []int64
	for i := int64(1); i <= n; i++ {
		offsets = append(offsets, l.Metrics().ActiveBytes)
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload byte in record 2 (well before the tail).
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+recHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open truncated interior corruption with acknowledged records after it")
	}
	// Verify (read-only) reports the damage rather than failing.
	rep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() {
		t.Error("Verify does not flag the interior corruption")
	}
}

func TestCorruptionInNonFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 256})
	for i := int64(1); i <= 12; i++ {
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := listSeqFiles(dir, "wal-", ".seg")
	if len(names) < 2 {
		t.Fatalf("need >= 2 segments, have %d", len(names))
	}
	first := filepath.Join(dir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted corruption in a sealed (non-final) segment")
	}
}

func TestSnapshotFallbackToPreviousValid(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff})
	for i := int64(1); i <= 4; i++ {
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshotStream(2, 20, &model.Snapshot{Users: []model.User{{ID: 2}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotStream(4, 40, &model.Snapshot{Users: []model.User{{ID: 4}}}, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Corrupt the newest snapshot; recovery must fall back to seq 2 and
	// replay batches 3..4 from the log. (Trimming keeps the two newest
	// snapshots and never deletes the active segment, so the tail is still
	// there.)
	newest := filepath.Join(dir, snapshotName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !info.HasSnapshot || info.SnapshotSeq != 2 {
		t.Fatalf("fallback snapshot seq %d (has=%v), want 2", info.SnapshotSeq, info.HasSnapshot)
	}
	if len(info.Batches) != 2 || info.Batches[0].Seq != 3 || info.Batches[1].Seq != 4 {
		t.Fatalf("replay tail %+v, want seqs 3,4", info.Batches)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: p, SyncInterval: 5 * time.Millisecond})
			for i := int64(1); i <= 3; i++ {
				if err := l.Append(uint64(i), testChanges(i)); err != nil {
					t.Fatal(err)
				}
			}
			if p == SyncInterval {
				// The background flusher should fsync within a few periods.
				deadline := time.Now().Add(2 * time.Second)
				for l.Metrics().Fsyncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if l.Metrics().Fsyncs == 0 {
					t.Error("interval policy never fsynced")
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			m := l.Metrics()
			if p == SyncAlways && m.Fsyncs < 3 {
				t.Errorf("always policy fsynced %d times for 3 appends", m.Fsyncs)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "off"} {
		p, err := ParseSyncPolicy(s)
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q -> %v", s, p)
		}
	}
	_, err := ParseSyncPolicy("sometimes")
	if want := `wal: unknown fsync policy "sometimes" (want always, interval or off)`; err == nil || err.Error() != want {
		t.Errorf("bad policy: error %v, want %s", err, want)
	}
	if s := SyncPolicy(7).String(); s != "SyncPolicy(7)" {
		t.Errorf("SyncPolicy(7).String() = %q", s)
	}
}

func TestVerifyReport(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff})
	for i := int64(1); i <= 6; i++ {
		if err := l.Append(uint64(i), testChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshotStream(3, 30, &model.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var visited int
	rep, err := Verify(dir, func(seg string, off int64, b Batch) { visited++ })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() {
		t.Fatalf("clean dir reported damaged: %+v", rep)
	}
	if rep.Batches != 6 || visited != 6 {
		t.Fatalf("verify saw %d batches (visited %d), want 6", rep.Batches, visited)
	}
	if rep.FirstSeq != 1 || rep.LastSeq != 6 {
		t.Fatalf("seq span %d..%d, want 1..6", rep.FirstSeq, rep.LastSeq)
	}
	if len(rep.Snapshots) != 1 || rep.Snapshots[0].Seq != 3 || rep.Snapshots[0].Err != "" {
		t.Fatalf("snapshots: %+v", rep.Snapshots)
	}

	// Damage the tail: Verify reports it but does not repair.
	seg := lastSegment(t, dir)
	st, _ := os.Stat(seg)
	if err := os.Truncate(seg, st.Size()-4); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() {
		t.Fatal("truncated tail not reported")
	}
	st2, _ := os.Stat(seg)
	if st2.Size() != st.Size()-4 {
		t.Error("Verify modified the segment")
	}
}

func TestSnapshotRoundTripEmptyAndFull(t *testing.T) {
	snaps := []*model.Snapshot{
		{},
		{
			Posts:       []model.Post{{ID: 1, Timestamp: -5}},
			Comments:    []model.Comment{{ID: 2, Timestamp: 9, ParentID: 1, PostID: 1}},
			Users:       []model.User{{ID: 3}, {ID: 4}},
			Friendships: []model.Friendship{{User1: 3, User2: 4}},
			Likes:       []model.Like{{UserID: 3, CommentID: 2}},
		},
	}
	for i, s := range snaps {
		var buf bytes.Buffer
		if err := encodeSnapshotStream(&buf, uint64(i+41), uint64(i+90), s, 16, nil); err != nil {
			t.Fatal(err)
		}
		seq, meta, got, err := decodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if seq != uint64(i+41) || meta != uint64(i+90) {
			t.Errorf("snapshot %d: seq %d meta %d", i, seq, meta)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("snapshot %d: round trip mismatch\n got %+v\nwant %+v", i, got, s)
		}
	}
}
