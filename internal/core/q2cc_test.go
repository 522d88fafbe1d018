package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
)

// ccStream decodes a fuzz input into valid change sets over a small graph
// around one hub user: two bytes per change, toggling a like or a
// friendship (so removed edges come back), or adding a user who befriends
// the hub or a comment the hub likes. The first byte's top bit ends the
// change set; so does a change that would touch an edge the set already
// touched.
type ccStream struct {
	users, comments []model.ID
	friends         map[[2]model.ID]bool
	likes           map[[2]model.ID]bool // (user, comment)
	nextTS          int64
}

const (
	ccHub      model.ID = 1
	ccPost     model.ID = 1000
	ccMaxUsers          = 14
	ccMaxCmts           = 7
)

// ccSnapshot is the stream's starting graph: the hub befriends every
// other user and likes every comment, and each other user likes one
// comment.
func ccSnapshot() (*model.Snapshot, *ccStream) {
	st := &ccStream{friends: map[[2]model.ID]bool{}, likes: map[[2]model.ID]bool{}, nextTS: 100}
	s := &model.Snapshot{Posts: []model.Post{{ID: ccPost, Timestamp: 1}}}
	for u := model.ID(1); u <= 8; u++ {
		st.users = append(st.users, u)
		s.Users = append(s.Users, model.User{ID: u})
	}
	for c := model.ID(0); c < 4; c++ {
		id := 2000 + c
		st.comments = append(st.comments, id)
		s.Comments = append(s.Comments, model.Comment{ID: id, Timestamp: int64(2 + c), ParentID: ccPost, PostID: ccPost})
		st.likes[[2]model.ID{ccHub, id}] = true
		s.Likes = append(s.Likes, model.Like{UserID: ccHub, CommentID: id})
	}
	for _, u := range st.users[1:] {
		st.friends[friendKey(ccHub, u)] = true
		s.Friendships = append(s.Friendships, model.Friendship{User1: ccHub, User2: u})
		c := st.comments[int(u)%len(st.comments)]
		st.likes[[2]model.ID{u, c}] = true
		s.Likes = append(s.Likes, model.Like{UserID: u, CommentID: c})
	}
	return s, st
}

// user picks a user for a byte, the hub for one value in three.
func (st *ccStream) user(b byte) model.ID {
	if b%3 == 0 {
		return ccHub
	}
	return st.users[int(b)%len(st.users)]
}

// sets decodes data into change sets. Each like or friendship change
// toggles its edge, so one set may remove an edge and add it back.
func (st *ccStream) sets(data []byte) []model.ChangeSet {
	var out []model.ChangeSet
	var cs model.ChangeSet
	flush := func() {
		if len(cs.Changes) > 0 {
			out = append(out, cs)
		}
		cs = model.ChangeSet{}
	}
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		var key [2]model.ID
		var ch model.Change
		switch b0 & 3 {
		case 0, 1:
			u, c := st.user(b0>>2), st.comments[int(b1)%len(st.comments)]
			key = [2]model.ID{u, c}
			ch = model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: u, CommentID: c}}
			if st.likes[key] {
				ch.Kind = model.KindRemoveLike
			}
		case 2:
			a, b := st.user(b0>>2), st.user(b1)
			if a == b {
				continue
			}
			key = friendKey(a, b)
			ch = model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: a, User2: b}}
			if st.friends[key] {
				ch.Kind = model.KindRemoveFriendship
			}
		case 3:
			if b1%2 == 0 && len(st.users) < ccMaxUsers {
				u := model.ID(len(st.users) + 1)
				st.users = append(st.users, u)
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddUser, User: model.User{ID: u}})
				key = friendKey(u, ccHub)
				ch = model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: u, User2: ccHub}}
			} else if b1%2 == 1 && len(st.comments) < ccMaxCmts {
				c := 2000 + model.ID(len(st.comments))
				st.comments = append(st.comments, c)
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddComment,
					Comment: model.Comment{ID: c, Timestamp: st.nextTS, ParentID: ccPost, PostID: ccPost}})
				st.nextTS++
				key = [2]model.ID{ccHub, c}
				ch = model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: ccHub, CommentID: c}}
			} else {
				continue
			}
		}
		switch ch.Kind {
		case model.KindAddLike, model.KindRemoveLike:
			st.likes[key] = ch.Kind == model.KindAddLike
		default:
			st.friends[key] = ch.Kind == model.KindAddFriendship
		}
		cs.Changes = append(cs.Changes, ch)
		if b0&0x80 != 0 {
			flush()
		}
	}
	flush()
	return out
}

// checkCCLabels checks one engine's flat component state against its own
// invariants: its comment numbering's (see ParkedComments), each held
// comment's likers strictly ascending, each label's size equal to the
// likes carrying it, every other label on the free list once, and the
// score equal to Σ sizes².
func checkCCLabels(t *testing.T, s *Q2IncrementalCC) {
	t.Helper()
	if _, err := s.ParkedComments(); err != nil {
		t.Fatal(err)
	}
	for ci := range s.cc {
		c := &s.cc[ci]
		count := make([]int32, len(c.sizes))
		for k, l := range c.likes {
			if k > 0 && c.likes[k-1].user >= l.user {
				t.Fatalf("comment %d: likers not strictly ascending at slot %d", ci, k)
			}
			count[l.label]++
		}
		free := make([]bool, len(c.sizes))
		for f := c.free; f != 0; f = -c.sizes[f-1] {
			if free[f-1] || c.sizes[f-1] > 0 {
				t.Fatalf("comment %d: free list revisits label %d or holds a live one", ci, f-1)
			}
			free[f-1] = true
		}
		var score int64
		for l, n := range count {
			if free[l] != (n == 0) || (n > 0 && c.sizes[l] != n) {
				t.Fatalf("comment %d: label %d carries %d likes, size %d, free %v", ci, l, n, c.sizes[l], free[l])
			}
			score += int64(n) * int64(n)
		}
		if score != c.score {
			t.Fatalf("comment %d: score %d, Σ sizes² %d", ci, c.score, score)
		}
	}
}

// FuzzQ2CCStream drives Q2IncrementalCC and Q2Batch through the like and
// friendship insertions and removals ccStream decodes, hub included. After
// Load and after every change set, q2cc's top-3 must equal Q2Batch's and
// the brute-force oracle's, each comment's maintained score the oracle's,
// and its flat state its own invariants.
func FuzzQ2CCStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, 0x82, 0x02, 0x06, 0x04, 0x00, 0x01, 0x81, 0x02})
	f.Add([]byte{0x02, 0x00, 0x02, 0x00, 0x03, 0x00, 0x03, 0x01, 0x84, 0x04, 0x0a, 0x05, 0x80, 0x00, 0x00, 0x00})
	f.Add([]byte{0x0a, 0x05, 0x0e, 0x07, 0x12, 0x0b, 0x16, 0x0d, 0x80, 0x01, 0x84, 0x02, 0x88, 0x03, 0x82, 0x05, 0x86, 0x0a})
	// One like, then one friendship, toggled three times within a set.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x02, 0x01, 0x02, 0x01, 0x82, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		snap, st := ccSnapshot()
		oracle := snap.Clone()
		batch, cc := NewQ2Batch(), NewQ2IncrementalCC()
		for _, eng := range []Solution{batch, cc} {
			if err := eng.Load(snap); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step string, want, got Result) {
			t.Helper()
			scores := oracleQ2(oracle)
			_, commentTS := timestamps(oracle)
			assertResultsEqual(t, batch.Name(), step, oracleTopK(scores, commentTS, TopK), want)
			assertResultsEqual(t, cc.Name(), step, want, got)
			assertCCScores(t, cc, step, scores)
			checkCCLabels(t, cc)
		}
		want, err := batch.Initial()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Initial()
		if err != nil {
			t.Fatal(err)
		}
		check("initial", want, got)
		for _, cs := range st.sets(data) {
			oracle.Apply(&cs)
			if want, err = batch.Update(&cs); err != nil {
				t.Fatal(err)
			}
			if got, err = cc.Update(&cs); err != nil {
				t.Fatal(err)
			}
			check("update", want, got)
		}
	})
}

// parkedIDs returns the ids of the comments s parks, in State order, after
// checking its comment numbering.
func parkedIDs(t *testing.T, s *Q2IncrementalCC) []model.ID {
	t.Helper()
	parked, err := s.ParkedComments()
	if err != nil {
		t.Fatal(err)
	}
	var ids []model.ID
	for ci, p := range parked {
		if p {
			id, _ := s.st.CommentIDTime(ci)
			ids = append(ids, id)
		}
	}
	return ids
}

// update applies changes to s through its own State.
func update(t *testing.T, s *Q2IncrementalCC, changes ...model.Change) Result {
	t.Helper()
	res, err := s.Update(&model.ChangeSet{Changes: changes})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQ2CCParkedCommentLifecycle is the unit test of q2cc's parking: a
// likeless comment holds no labels, parks and ranks through the parked
// heap; a new comment parks; its first like moves it among the held
// comments, labelled and ranked there; and once unliked back to no like
// it stays held, scoring 0.
func TestQ2CCParkedCommentLifecycle(t *testing.T) {
	snap := &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 5, ParentID: 1, PostID: 1}, // liked: held
			{ID: 11, Timestamp: 7, ParentID: 1, PostID: 1}, // likeless: parks
		},
		Users: []model.User{{ID: 100}, {ID: 101}},
		Likes: []model.Like{{UserID: 100, CommentID: 10}},
	}
	s := NewQ2IncrementalCC()
	if err := s.Load(snap); err != nil {
		t.Fatal(err)
	}
	res, err := s.Initial()
	if err != nil {
		t.Fatal(err)
	}
	if got := parkedIDs(t, s); !reflect.DeepEqual(got, []model.ID{11}) {
		t.Fatalf("initially parked %v, want [11]", got)
	}
	if len(s.cc) != 1 {
		t.Fatalf("%d comments hold labels, want only 10", len(s.cc))
	}
	if got := s.parked.Top(TopK).String(); got != "11" {
		t.Fatalf("parked ranking = %q, want %q", got, "11")
	}
	if res.String() != "10|11" {
		t.Fatalf("initial answer %q, want 10|11", res)
	}

	// A new likeless comment parks and outranks the older parked one
	// (equal zero scores, newer timestamp wins).
	res = update(t, s, model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: 12, Timestamp: 9, ParentID: 1, PostID: 1}})
	if got := parkedIDs(t, s); !reflect.DeepEqual(got, []model.ID{11, 12}) {
		t.Fatalf("parked %v after a new comment, want [11 12]", got)
	}
	if got := s.parked.Top(TopK).String(); got != "12|11" {
		t.Fatalf("parked ranking = %q, want %q", got, "12|11")
	}
	if res.String() != "10|12|11" {
		t.Fatalf("answer %q, want 10|12|11", res)
	}

	// First like: comment 12 joins the held comments with one liker.
	res = update(t, s, model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}})
	if got := parkedIDs(t, s); !reflect.DeepEqual(got, []model.ID{11}) {
		t.Fatalf("parked %v after 12's first like, want [11]", got)
	}
	if got := s.parked.Top(TopK).String(); got != "11" {
		t.Fatalf("parked ranking after the join = %q, want %q", got, "11")
	}
	if res.String() != "12|10|11" {
		t.Fatalf("answer %q, want 12|10|11", res)
	}

	// Unliked back to no like, comment 12 stays held and scores 0.
	res = update(t, s, model.Change{Kind: model.KindRemoveLike, Like: model.Like{UserID: 101, CommentID: 12}})
	if got := parkedIDs(t, s); !reflect.DeepEqual(got, []model.ID{11}) {
		t.Fatalf("parked %v after 12's unlike, want [11]", got)
	}
	ci := commentIndex(s.st)[12]
	if l := s.local[ci]; l < 0 || s.cc[l].score != 0 || len(s.cc[l].likes) != 0 {
		t.Fatalf("comment 12 after its unlike: local index %d, want held with no like and score 0", l)
	}
	if res.String() != "10|12|11" {
		t.Fatalf("answer %q, want 10|12|11", res)
	}
}

// TestParkedTopKMatchesBruteForce is a differential test of q2cc's parked
// heap: starting from a snapshot's likeless comments, over random
// sequences of new comments (which park) and first likes (which move a
// comment among the held ones) with many equal timestamps, the parked
// heap's top-3 must equal a brute-force top-3 of the parked comments.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1}}, Users: []model.User{{ID: 1}}}
	var live []model.ID // parked ids, for picking first likes
	next := model.ID(1)
	for ; next <= 20; next++ {
		snap.Comments = append(snap.Comments, model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1})
		live = append(live, next)
	}
	s := NewQ2IncrementalCC()
	if err := s.Load(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Initial(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 45:
			update(t, s, model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1}})
			live = append(live, next)
			next++
		default:
			// Half the first likes hit the parked top-3, as first likes on
			// the newest comments do; the rest hit any parked comment.
			var id model.ID
			if top := s.parked.Top(TopK); rng.Intn(2) == 0 && len(top) > 0 {
				id = top[rng.Intn(len(top))].ID
			} else {
				id = live[rng.Intn(len(live))]
			}
			for k, v := range live {
				if v == id {
					live = append(live[:k], live[k+1:]...)
					break
				}
			}
			update(t, s, model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 1, CommentID: id}})
		}
		var all Result
		for ci, l := range s.local {
			if l < 0 {
				id, ts := s.st.CommentIDTime(ci)
				all = append(all, Entry{ID: id, Timestamp: ts})
			}
		}
		sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
		want := all[:min(TopK, len(all))]
		if got := s.parked.Top(TopK); got.String() != want.String() {
			t.Fatalf("step %d: parked top-3 = %q, brute force %q", step, got, want)
		}
	}
	if _, err := s.ParkedComments(); err != nil {
		t.Fatal(err)
	}
}
