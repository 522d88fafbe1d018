package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/model"
)

// The decoders sit on the recovery path, where they are fed whatever a
// crash left on disk: these fuzz targets prove arbitrary bytes never
// panic or over-allocate — they decode or return an error — and that
// encode/decode is an exact round trip on everything that does decode.
// `go test` runs the seed corpus as regular tests; `go test -fuzz
// FuzzDecodePayload ./internal/wal` explores further.

func FuzzDecodePayload(f *testing.F) {
	// Seeds: valid payloads of every change kind, an empty batch, and a
	// few deliberately damaged variants steering the fuzzer toward the
	// interesting length/count/kind boundaries.
	for i := int64(0); i < 3; i++ {
		p, err := encodePayload(nil, uint64(i), testChanges(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		if len(p) > 14 {
			f.Add(p[:14])                  // truncated mid-header
			f.Add(append(p[:13:13], 0xff)) // clipped change list
		}
		mut := append([]byte(nil), p...)
		mut[12] = 0xee // absurd change kind
		f.Add(mut)
	}
	empty, _ := encodePayload(nil, 1, nil)
	f.Add(empty)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 13)) // count field of ~4 billion

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodePayload(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to the identical bytes: the
		// format has no redundancy, so this pins both directions.
		out, err := encodePayload(nil, b.Seq, b.Changes)
		if err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data, out)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	full := &model.Snapshot{
		Posts:       []model.Post{{ID: 1, Timestamp: 2}},
		Comments:    []model.Comment{{ID: 3, Timestamp: 4, ParentID: 1, PostID: 1}},
		Users:       []model.User{{ID: 5}},
		Friendships: []model.Friendship{{User1: 5, User2: 6}},
		Likes:       []model.Like{{UserID: 5, CommentID: 3}},
	}
	for _, s := range []*model.Snapshot{{}, full} {
		enc := encodeSnapshotV1(7, 9, s)
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // clipped CRC
		mut := append([]byte(nil), enc...)
		mut[len(snapshotMagic)+8] ^= 0x80 // bend a count field
		f.Add(mut)

		// The chunked streaming format, at a tiny chunk size so multi-chunk
		// framing (and its terminator) is in the corpus.
		var buf bytes.Buffer
		if err := encodeSnapshotStream(&buf, 7, 9, s, 32, nil); err != nil {
			f.Fatal(err)
		}
		v2 := buf.Bytes()
		f.Add(append([]byte(nil), v2...))
		f.Add(v2[:len(v2)-4]) // clipped terminator
		mut2 := append([]byte(nil), v2...)
		mut2[len(mut2)/2] ^= 0x01 // damage a chunk
		f.Add(mut2)
	}
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(snapshotMagicV2))
	f.Add(bytes.Repeat([]byte{0x41}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, meta, s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte(snapshotMagicV2)) {
			// Chunk boundaries are an encoder choice, so v2 round-trips
			// semantically: re-encode (as v1, the canonical single-buffer
			// form) and the result must decode back to the same state.
			seq2, meta2, s2, err := decodeSnapshot(encodeSnapshotV1(seq, meta, s))
			if err != nil {
				t.Fatalf("decoded v2 snapshot fails to re-encode: %v", err)
			}
			if seq2 != seq || meta2 != meta || !reflect.DeepEqual(s2, s) {
				t.Fatalf("v2 semantic round trip mismatch for seq %d", seq)
			}
			return
		}
		out := encodeSnapshotV1(seq, meta, s)
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch for seq %d", seq)
		}
	})
}
