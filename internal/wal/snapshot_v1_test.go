package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// encodeSnapshotV1 builds a version-1 ("TTCSNAP1") image. Only older
// releases wrote this format; the test keeps an encoder so the decoder,
// which recovery still needs for their directories, stays covered.
func encodeSnapshotV1(seq, meta uint64, s *model.Snapshot) []byte {
	b := append([]byte(nil), snapshotMagic...)
	b = appendUint64(b, seq)
	b = appendUint64(b, meta)
	b = appendUint64(b, uint64(len(s.Posts)))
	for _, p := range s.Posts {
		b = appendPostRec(b, p)
	}
	b = appendUint64(b, uint64(len(s.Comments)))
	for _, c := range s.Comments {
		b = appendCommentRec(b, c)
	}
	b = appendUint64(b, uint64(len(s.Users)))
	for _, u := range s.Users {
		b = appendUserRec(b, u)
	}
	b = appendUint64(b, uint64(len(s.Friendships)))
	for _, f := range s.Friendships {
		b = appendFriendshipRec(b, f)
	}
	b = appendUint64(b, uint64(len(s.Likes)))
	for _, l := range s.Likes {
		b = appendLikeRec(b, l)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(snapshotMagic):], castagnoli))
}

// writeSnapshotV1 places a version-1 snapshot file in dir, as an older
// release would have left it.
func writeSnapshotV1(t testing.TB, dir string, seq, meta uint64, s *model.Snapshot) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(seq)), encodeSnapshotV1(seq, meta, s), 0o644); err != nil {
		t.Fatal(err)
	}
}
