package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// goldenChanges is a batch holding every change kind, with negative and
// extreme values so the golden bytes pin sign and byte order too.
func goldenChanges() []model.Change {
	return []model.Change{
		{Kind: model.KindAddPost, Post: model.Post{ID: 1, Timestamp: -2}},
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 3, Timestamp: math.MaxInt64, ParentID: 1, PostID: math.MinInt64}},
		{Kind: model.KindAddUser, User: model.User{ID: 0x0102030405060708}},
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 9, User2: 8}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 9, CommentID: 3}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 8, User2: 9}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: 9, CommentID: 3}},
	}
}

// TestPayloadBytesAreGolden pins the WAL record payload byte for byte: a
// log written by any earlier build must still replay.
func TestPayloadBytesAreGolden(t *testing.T) {
	const want = "070000000000000007000000" +
		"000100000000000000feffffffffffffff" +
		"010300000000000000ffffffffffffff7f01000000000000000000000000000080" +
		"020807060504030201" +
		"030900000000000000" + "0800000000000000" +
		"040900000000000000" + "0300000000000000" +
		"050800000000000000" + "0900000000000000" +
		"060900000000000000" + "0300000000000000"
	changes := goldenChanges()
	p, err := encodePayload(nil, 7, changes)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(p); got != want {
		t.Fatalf("payload bytes changed:\n got %s\nwant %s", got, want)
	}
	b, err := decodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 7 || !reflect.DeepEqual(b.Changes, changes) {
		t.Fatalf("golden payload decodes to %+v", b)
	}
}

// TestSnapshotBytesAreGolden pins the snapshot file byte for byte (by its
// SHA-256) for the paper's running example and for the same model after
// an update with removals, encoded in one chunk and in 40-byte chunks.
func TestSnapshotBytesAreGolden(t *testing.T) {
	removed := model.ExampleDataset()
	removed.Snapshot.Apply(&removed.ChangeSets[0])
	removed.Snapshot.Apply(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: model.U3, User2: model.U2}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: model.U3, CommentID: model.C1}},
	}})
	for _, tc := range []struct {
		name  string
		s     *model.Snapshot
		chunk int
		size  int
		sum   string
	}{
		{"example", model.ExampleDataset().Snapshot, 0, 356, "ecc122a78ab70fa963afe29e74b42a5dbf33194a4b983a190d07dd4f9ae6680d"},
		{"removed/chunk40", removed.Snapshot, 40, 460, "21b38f951a5bf2d79ac969a507dd7867cf082b1de2c2d26f5d6cd3b1a6294628"},
	} {
		var buf bytes.Buffer
		if err := encodeSnapshotStream(&buf, 5, 6, tc.s, tc.chunk, nil); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.sum {
			t.Errorf("%s: snapshot bytes changed: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.name, buf.Len(), got, tc.size, tc.sum)
		}
		seq, meta, s, err := decodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if seq != 5 || meta != 6 || !reflect.DeepEqual(s, tc.s) {
			t.Fatalf("%s: golden snapshot decodes to seq %d meta %d %+v", tc.name, seq, meta, s)
		}
	}
}

// TestStateViewBytesAreGolden pins the snapshot file a State's view
// writes, byte for byte, after a removal-heavy stream: the order and the
// spelling of the edges it holds after swap removals (a friendship's users
// in ascending id order) are the State's, not Snapshot.Apply's.
func TestStateViewBytesAreGolden(t *testing.T) {
	const size, sum = 385452, "60acf40bd04c6c7cd880ce2279101bf5d6f3d13334ad059b7eba9831e9f48fa2"
	d := datagen.Generate(datagen.Config{ScaleFactor: 8, Seed: 1, ChangeSets: 500, RemovalFraction: 0.35})
	st, err := model.NewState(d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.ChangeSets {
		if _, err := st.Apply(d.ChangeSets[i].Changes); err != nil {
			t.Fatalf("change set %d: %v", i, err)
		}
	}
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	view, release := st.View()
	err = l.WriteSnapshotStream(7, 9, view, nil)
	release()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(7)))
	if err != nil {
		t.Fatal(err)
	}
	got := sha256.Sum256(data)
	if len(data) != size || hex.EncodeToString(got[:]) != sum {
		t.Fatalf("state view snapshot changed: %d bytes, sha256 %x; want %d bytes, sha256 %s", len(data), got, size, sum)
	}
}
