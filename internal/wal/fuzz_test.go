package wal

import (
	"bytes"
	"path/filepath"
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
		// Both a single chunk and, at a tiny chunk size, multi-chunk
		// framing (and its terminator) are in the corpus.
		for _, chunk := range []int{0, 32} {
			var buf bytes.Buffer
			if err := encodeSnapshotStream(&buf, 7, 9, s, chunk, nil); err != nil {
				f.Fatal(err)
			}
			enc := buf.Bytes()
			f.Add(append([]byte(nil), enc...))
			f.Add(enc[:len(enc)-4]) // clipped terminator
			mut := append([]byte(nil), enc...)
			mut[len(mut)/2] ^= 0x01 // damage a chunk
			f.Add(mut)
			mut = append([]byte(nil), enc...)
			mut[len(snapshotMagic)+2*8+4+8] ^= 0x80 // bend the posts count
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("TTCSNAP1"))
	f.Add(bytes.Repeat([]byte{0x41}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, meta, s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		// Chunk boundaries are an encoder choice, so the format round-trips
		// semantically: re-encoded, the result must decode back to the same
		// state.
		var buf bytes.Buffer
		if err := encodeSnapshotStream(&buf, seq, meta, s, 0, nil); err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		seq2, meta2, s2, err := decodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if seq2 != seq || meta2 != meta || !reflect.DeepEqual(s2, s) {
			t.Fatalf("semantic round trip mismatch for seq %d", seq)
		}
	})
}

// FuzzCompactRecovery: recovery of a compacted directory must rebuild the
// state recovery of an untouched copy rebuilds — and the state the history
// committed. The input drives a valid like/friendship add/remove history
// over a few ids (each op toggles one edge), the segment size, and where
// snapshots of the committed state are written (top bit of an op).
// Recovery replays strictly (model.State), as the server does.
func FuzzCompactRecovery(f *testing.F) {
	// seq 1 adds a like, a snapshot at seq 2 holds it, seq 3 removes it,
	// all in the first segment.
	f.Add(uint8(100), []byte{0, 0x86, 0, 1, 2})
	f.Add(uint8(200), []byte("\x811000000"))
	f.Add(uint8(36), []byte{0, 1, 0x80, 0, 2, 1, 3, 0x82, 2, 4, 0, 0, 1})
	f.Add(uint8(0), []byte{0, 0x80, 5, 0, 5, 0x80, 0, 6, 6, 0x86})
	f.Add(uint8(200), []byte{1, 2, 3, 4, 5, 6, 7, 0x81, 1, 2, 3, 4, 5, 6, 7, 0x80, 9, 9})
	f.Add(uint8(90), bytes.Repeat([]byte{3, 0x83}, 12))
	f.Fuzz(func(t *testing.T, segBytes uint8, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		users := []model.User{{ID: 1}, {ID: 2}, {ID: 3}}
		comments := []model.Comment{{ID: 10, ParentID: 9, PostID: 9}, {ID: 11, ParentID: 9, PostID: 9}}
		likes := map[model.Like]bool{}
		friends := map[model.Friendship]bool{}
		committed := func() *model.Snapshot {
			s := &model.Snapshot{Posts: []model.Post{{ID: 9}}, Users: users, Comments: comments}
			for lk := range likes {
				s.Likes = append(s.Likes, lk)
			}
			for fr := range friends {
				s.Friendships = append(s.Friendships, fr)
			}
			return s
		}

		dir := t.TempDir()
		l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 40 + int64(segBytes)})
		if err := l.WriteSnapshotStream(0, 0, committed(), nil); err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			var ch model.Change
			if k := int(op&0x7f) % 12; k < 6 {
				lk := model.Like{UserID: users[k%3].ID, CommentID: comments[k/3].ID}
				ch = model.Change{Kind: model.KindAddLike, Like: lk}
				if likes[lk] {
					ch.Kind = model.KindRemoveLike
				}
				likes[lk] = !likes[lk]
				if !likes[lk] {
					delete(likes, lk)
				}
			} else {
				pair := [3][2]model.ID{{1, 2}, {1, 3}, {2, 3}}[(k-6)%3]
				fr := model.Friendship{User1: pair[0], User2: pair[1]}
				ch = model.Change{Kind: model.KindAddFriendship, Friendship: fr}
				if friends[fr] {
					ch.Kind = model.KindRemoveFriendship
				}
				friends[fr] = !friends[fr]
				if !friends[fr] {
					delete(friends, fr)
				}
			}
			seq := uint64(i + 1)
			if err := l.Append(seq, []model.Change{ch}); err != nil {
				t.Fatal(err)
			}
			if op&0x80 != 0 {
				if err := l.WriteSnapshotStream(seq, 0, committed(), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		plain := copyDir(t, dir)
		if _, err := CompactDir(dir, false); err != nil {
			t.Fatal(err)
		}

		want := edgeSets(committed())
		for _, d := range []string{plain, dir} {
			l, info := mustOpen(t, Options{Dir: d})
			l.Close()
			st, err := model.NewState(info.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range info.Batches {
				if _, err := st.Apply(b.Changes); err != nil {
					t.Fatalf("%s: replay of batch seq %d: %v", filepath.Base(d), b.Seq, err)
				}
			}
			got := edgeSets(snapshotOf(st))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recovered edges %v, committed %v", filepath.Base(d), got, want)
			}
		}
	})
}

// snapshotOf reads the state through a view, family by family, as the
// snapshot encoder does.
func snapshotOf(st *model.State) *model.Snapshot {
	view, release := st.View()
	defer release()
	s := &model.Snapshot{}
	for f := model.KeyKind(0); f < model.Families; f++ {
		s.AppendEntities(f, view.AppendFields(nil, f, 0, view.Len(f)))
	}
	return s
}

// edgeSets is a snapshot's likes and (canonical) friendships as sets.
func edgeSets(s *model.Snapshot) [2]map[[2]model.ID]bool {
	sets := [2]map[[2]model.ID]bool{{}, {}}
	for _, lk := range s.Likes {
		sets[0][[2]model.ID{lk.UserID, lk.CommentID}] = true
	}
	for _, fr := range s.Friendships {
		sets[1][[2]model.ID{min(fr.User1, fr.User2), max(fr.User1, fr.User2)}] = true
	}
	return sets
}
