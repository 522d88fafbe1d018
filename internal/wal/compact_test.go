package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
)

// churnChanges builds a batch whose like/friendship churn compacts: an add
// and a remove of the same edges (net nothing) plus one surviving like.
func churnChanges(i int64) []model.Change {
	return []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 1000 + i}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 1000 + i, CommentID: 1}},
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 1000 + i, User2: 1}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 1, User2: 1000 + i}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: 1000 + i, CommentID: 1}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 1000 + i, CommentID: 2}},
	}
}

// copyDir duplicates a durability directory, for compacted-vs-uncompacted
// comparisons.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// replayState applies a recovery's batches on top of its snapshot (or an
// empty base) — the final model state a recovering server rebuilds.
func replayState(info RecoveryInfo) *model.Snapshot {
	s := &model.Snapshot{}
	if info.HasSnapshot {
		s = info.Snapshot.Clone()
	}
	for _, b := range info.Batches {
		cs := model.ChangeSet{Changes: b.Changes}
		s.Apply(&cs)
	}
	return s
}

// churnLog writes n churn batches across several small segments and closes
// the log, returning the directory.
func churnLog(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 512})
	for i := int64(1); i <= int64(n); i++ {
		if err := l.Append(uint64(i), churnChanges(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCompactDirPreservesRecoveredState is the core compaction oracle:
// recovery over a compacted directory must rebuild exactly the state an
// uncompacted copy rebuilds, with the same contiguous sequence numbers,
// while the superseded add+remove churn disappears from the files.
func TestCompactDirPreservesRecoveredState(t *testing.T) {
	const n = 40
	dir := churnLog(t, n)
	plain := copyDir(t, dir)

	rep, err := CompactDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompactedSegments == 0 {
		t.Fatalf("no segment compacted: %+v", rep)
	}
	if rep.ChangesOut >= rep.ChangesIn {
		t.Fatalf("compaction dropped nothing: %+v", rep)
	}
	if rep.BytesOut >= rep.BytesIn {
		t.Fatalf("compaction saved no bytes: %+v", rep)
	}
	if rep.RemovalsOut >= rep.RemovalsIn {
		t.Fatalf("removals were not superseded: %+v", rep)
	}

	vrep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vrep.Damaged() {
		t.Fatalf("compacted directory verifies damaged: %+v", vrep)
	}

	lc, infoC := mustOpen(t, Options{Dir: dir})
	defer lc.Close()
	lp, infoP := mustOpen(t, Options{Dir: plain})
	defer lp.Close()
	if len(infoC.Batches) != len(infoP.Batches) {
		t.Fatalf("compacted recovery has %d batches, uncompacted %d", len(infoC.Batches), len(infoP.Batches))
	}
	for i := range infoC.Batches {
		if infoC.Batches[i].Seq != infoP.Batches[i].Seq {
			t.Fatalf("batch %d: seq %d vs %d", i, infoC.Batches[i].Seq, infoP.Batches[i].Seq)
		}
	}
	if !reflect.DeepEqual(replayState(infoC), replayState(infoP)) {
		t.Fatal("compacted and uncompacted recoveries rebuild different states")
	}
	if lc.LastSeq() != lp.LastSeq() {
		t.Fatalf("LastSeq %d vs %d", lc.LastSeq(), lp.LastSeq())
	}
	// Appends continue normally after recovery from a compacted log.
	if err := lc.Append(uint64(n+1), churnChanges(n+1)); err != nil {
		t.Fatalf("append after compacted recovery: %v", err)
	}
}

// TestCompactDirNeverTouchesActiveSegment: the newest segment is the one a
// restarted server appends to; compaction must leave it byte-identical.
func TestCompactDirNeverTouchesActiveSegment(t *testing.T) {
	dir := churnLog(t, 40)
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("fixture produced %d segments, want >= 2", len(segs))
	}
	active := segs[len(segs)-1]
	before, err := os.ReadFile(filepath.Join(dir, active))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactDir(dir, false); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, active))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("compaction modified the active segment")
	}
}

// TestCompactDirDryRun measures without modifying anything.
func TestCompactDirDryRun(t *testing.T) {
	dir := churnLog(t, 40)
	fingerprint := func() map[string]int64 {
		out := map[string]int64{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			st, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = st.Size()
		}
		return out
	}
	before := fingerprint()
	rep, err := CompactDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DryRun || rep.CompactedSegments == 0 || rep.BytesOut >= rep.BytesIn {
		t.Fatalf("dry run measured nothing: %+v", rep)
	}
	if !reflect.DeepEqual(before, fingerprint()) {
		t.Fatal("dry run modified the directory")
	}
	// The real pass must deliver what the dry run promised.
	real, err := CompactDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if real.BytesOut != rep.BytesOut || real.ChangesOut != rep.ChangesOut {
		t.Fatalf("dry run promised bytes=%d changes=%d, real pass delivered bytes=%d changes=%d",
			rep.BytesOut, rep.ChangesOut, real.BytesOut, real.ChangesOut)
	}
}

// TestLogCompactLive compacts through an open log while it keeps appending,
// then verifies recovery of the full (compacted + fresh) history.
func TestLogCompactLive(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 512})
	const n = 30
	for i := int64(1); i <= n; i++ {
		if err := l.Append(uint64(i), churnChanges(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompactedSegments == 0 {
		t.Fatalf("live compaction rewrote nothing: %+v", rep)
	}
	if rep.BytesOut >= rep.BytesIn {
		t.Fatalf("live compaction reclaimed no bytes: %+v", rep)
	}
	// A second pass with no newly sealed segments skips everything — the
	// watermark keeps periodic passes from re-reading the whole history.
	rep2, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SealedSegments != 0 || rep2.CompactedSegments != 0 {
		t.Fatalf("second pass re-processed already-compacted segments: %+v", rep2)
	}
	// The log must keep appending to its (untouched) active segment.
	for i := int64(n + 1); i <= n+10; i++ {
		if err := l.Append(uint64(i), churnChanges(i)); err != nil {
			t.Fatalf("append after live compaction: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if len(info.Batches) != n+10 {
		t.Fatalf("recovered %d batches, want %d", len(info.Batches), n+10)
	}
	for i, b := range info.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d, want %d", i, b.Seq, i+1)
		}
	}
}

// TestCompactRefusesDamagedSealedSegment: corruption in sealed history is
// lost commits; compaction must surface it, not rewrite around it.
func TestCompactRefusesDamagedSealedSegment(t *testing.T) {
	dir := churnLog(t, 40)
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segmentMagic)+10] ^= 0xff // flip a payload byte: CRC mismatch
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactDir(dir, false); err == nil {
		t.Fatal("compaction of a damaged sealed segment succeeded, want error")
	}
}

// TestOpenSweepsOrphanedCompactTemp: a crash between temp write and rename
// leaves wal-*.seg.compact behind; Open must remove it and recover from the
// originals.
func TestOpenSweepsOrphanedCompactTemp(t *testing.T) {
	dir := churnLog(t, 10)
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, segs[0]+".compact")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, info := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if len(info.Batches) != 10 {
		t.Fatalf("recovered %d batches, want 10", len(info.Batches))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned .compact temp file survived Open")
	}
}

// splitHistory is a sealed segment of seq 1 add-like, seq 2 add-user and
// seq 3 remove-like, then seq 4 opening the active segment (with 100-byte
// segments): the like nets out inside the sealed segment, but a snapshot
// at seq 2 holds it, so recovery from that snapshot must still replay the
// removal — the segment must not be compacted.
var splitHistory = [][]model.Change{
	{{Kind: model.KindAddLike, Like: model.Like{UserID: 1, CommentID: 1}}},
	{{Kind: model.KindAddUser, User: model.User{ID: 2}}},
	{{Kind: model.KindRemoveLike, Like: model.Like{UserID: 1, CommentID: 1}}},
	{{Kind: model.KindAddUser, User: model.User{ID: 3}}},
}

// splitAt2 is the model state after seq 2 of splitHistory.
var splitAt2 = &model.Snapshot{
	Users: []model.User{{ID: 1}, {ID: 2}},
	Likes: []model.Like{{UserID: 1, CommentID: 1}},
}

func appendHistory(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(uint64(seq), splitHistory[seq-1]); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

// recoveredLikes opens dir and returns the likes recovery rebuilds.
func recoveredLikes(t *testing.T, dir string) []model.Like {
	t.Helper()
	l, info := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	return replayState(info).Likes
}

// TestCompactSkipsSegmentSplitBySnapshot: a snapshot on disk inside a
// sealed segment keeps compaction — offline and live — from rewriting it,
// so recovery rebuilds what an untouched copy rebuilds (no like).
func TestCompactSkipsSegmentSplitBySnapshot(t *testing.T) {
	for _, live := range []bool{false, true} {
		t.Run(map[bool]string{false: "offline", true: "live"}[live], func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 100})
			appendHistory(t, l, 1, 2)
			if err := l.WriteSnapshotStream(2, 0, splitAt2, nil); err != nil {
				t.Fatal(err)
			}
			appendHistory(t, l, 3, 4)
			var rep CompactionReport
			var err error
			if live {
				rep, err = l.Compact()
				// A snapshot older than the compacted log could split a
				// rewritten segment, so it is refused.
				if serr := l.WriteSnapshotStream(1, 0, &model.Snapshot{}, nil); serr == nil {
					t.Error("snapshot below the compacted log accepted")
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			plain := copyDir(t, dir)
			if !live {
				rep, err = CompactDir(dir, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := recoveredLikes(t, dir), recoveredLikes(t, plain); len(got) != 0 || len(want) != 0 {
				t.Fatalf("recovered likes %v, untouched copy %v, want none", got, want)
			}
			if rep.SealedSegments != 1 || rep.CompactedSegments != 0 {
				t.Fatalf("compaction rewrote a segment the snapshot splits: %+v", rep)
			}
		})
	}
}

// TestCompactSkipsSegmentSplitByInFlightSnapshot: a snapshot still being
// written (held open in its onChunk hook) counts like one on disk — its
// segment seals while it encodes, and a Compact pass must leave it alone.
func TestCompactSkipsSegmentSplitByInFlightSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 100})
	appendHistory(t, l, 1, 2)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- l.WriteSnapshotStream(2, 0, splitAt2, func(int) error {
			if first {
				first = false
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	appendHistory(t, l, 3, 4)
	rep, err := l.Compact()
	close(release)
	if serr := <-done; serr != nil {
		t.Fatalf("snapshot: %v", serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredLikes(t, dir); len(got) != 0 {
		t.Fatalf("recovered likes %v, want none", got)
	}
	if rep.SealedSegments != 1 || rep.CompactedSegments != 0 {
		t.Fatalf("compaction rewrote the segment an in-flight snapshot splits: %+v", rep)
	}
}

// TestCompactNetsOutEitherFriendshipSpelling: the writer logs friendships
// with the endpoints in the order the client sent them, so a sealed
// segment may add an edge as (9, 2) and remove it as (2, 9). The two must
// still net out, and recovery through the State must rebuild from the
// compacted directory what it rebuilds from an untouched copy.
func TestCompactNetsOutEitherFriendshipSpelling(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 100})
	base := &model.Snapshot{Users: []model.User{{ID: 2}, {ID: 9}}}
	if err := l.WriteSnapshotStream(0, 0, base, nil); err != nil {
		t.Fatal(err)
	}
	// Seqs 1–3 fill the sealed segment, seq 4 opens the active one.
	history := [][]model.Change{
		{{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 9, User2: 2}}},
		{{Kind: model.KindAddUser, User: model.User{ID: 3}}},
		{{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 2, User2: 9}}},
		{{Kind: model.KindAddUser, User: model.User{ID: 4}}},
	}
	for i, changes := range history {
		if err := l.Append(uint64(i+1), changes); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	plain := copyDir(t, dir)
	rep, err := CompactDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealedSegments != 1 || rep.CompactedSegments != 1 || rep.ChangesIn != 3 || rep.ChangesOut != 1 {
		t.Fatalf("want the sealed segment's friendship add and remove to net out: %+v", rep)
	}

	recovered := func(d string) (*model.Snapshot, []Batch) {
		l, info := mustOpen(t, Options{Dir: d})
		defer l.Close()
		st, err := model.NewState(info.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range info.Batches {
			if _, err := st.Apply(b.Changes); err != nil {
				t.Fatalf("replay of batch seq %d: %v", b.Seq, err)
			}
		}
		return snapshotOf(st), info.Batches
	}
	got, batches := recovered(dir)
	want, plainBatches := recovered(plain)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted recovery rebuilds %+v, untouched copy %+v", got, want)
	}
	if len(got.Friendships) != 0 || len(got.Users) != 4 {
		t.Fatalf("recovered %+v, want users 2, 9, 3, 4 and no friendship", got)
	}
	if len(batches) != 4 || len(batches[0].Changes) != 0 || len(batches[2].Changes) != 0 {
		t.Fatalf("compacted batches %+v, want seqs 1 and 3 empty", batches)
	}
	if fr := plainBatches[0].Changes[0].Friendship; fr.User1 != 9 || fr.User2 != 2 {
		t.Fatalf("the log stored the add as %+v, want the client's (9, 2)", fr)
	}
}
