package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// hubStream is a generator of valid change sets around one hub user: it
// tracks the live friendships and likes so removals name existing edges
// and additions name new ones.
type hubStream struct {
	rng     *rand.Rand
	hub     model.ID
	users   []model.ID
	likers  []model.ID // non-hub users with a like, where hub changes matter
	cmts    []model.ID
	friends map[[2]model.ID]bool
	likes   map[[2]model.ID]bool // (user, comment)
	nextID  model.ID
	nextTS  int64
	post    model.ID
}

func friendKey(a, b model.ID) [2]model.ID {
	if b < a {
		a, b = b, a
	}
	return [2]model.ID{a, b}
}

// hubSnapshot builds a graph where one user has thousands of friends and
// likes most comments, while every comment has only a handful of other
// likers: the hub's friend row is far longer than any liker set, and its
// like list far longer than any other user's.
func hubSnapshot(rng *rand.Rand) (*model.Snapshot, *hubStream) {
	const (
		nUsers      = 2500
		nHubFriends = 2000
		nComments   = 120
		nHubLikes   = 100
	)
	st := &hubStream{
		rng:     rng,
		hub:     1,
		friends: map[[2]model.ID]bool{},
		likes:   map[[2]model.ID]bool{},
		nextID:  10_000_000,
		post:    1_000_001,
	}
	s := &model.Snapshot{Posts: []model.Post{{ID: st.post, Timestamp: 1}}}
	for u := model.ID(1); u <= nUsers; u++ {
		s.Users = append(s.Users, model.User{ID: u})
		st.users = append(st.users, u)
	}
	for c := 0; c < nComments; c++ {
		id := model.ID(2_000_001 + c)
		s.Comments = append(s.Comments, model.Comment{ID: id, Timestamp: int64(2 + c), ParentID: st.post, PostID: st.post})
		st.cmts = append(st.cmts, id)
	}
	st.nextTS = int64(2 + nComments)
	addFriend := func(a, b model.ID) {
		if a == b || st.friends[friendKey(a, b)] {
			return
		}
		st.friends[friendKey(a, b)] = true
		s.Friendships = append(s.Friendships, model.Friendship{User1: a, User2: b})
	}
	for u := model.ID(2); u <= nHubFriends+1; u++ {
		addFriend(st.hub, u)
	}
	for k := 0; k < 400; k++ {
		addFriend(st.users[1+rng.Intn(nUsers-1)], st.users[1+rng.Intn(nUsers-1)])
	}
	addLike := func(u, c model.ID) {
		if st.likes[[2]model.ID{u, c}] {
			return
		}
		st.likes[[2]model.ID{u, c}] = true
		s.Likes = append(s.Likes, model.Like{UserID: u, CommentID: c})
	}
	for _, c := range st.cmts[:nHubLikes] {
		addLike(st.hub, c)
	}
	for _, c := range st.cmts {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			u := st.users[1+rng.Intn(nUsers-1)]
			addLike(u, c)
			st.likers = append(st.likers, u)
		}
	}
	return s, st
}

// next returns a change set of a few changes, most of them between the
// hub and the other likers, where they move scores. No two changes in a
// set touch the same edge.
func (st *hubStream) next() model.ChangeSet {
	var cs model.ChangeSet
	used := map[[2]model.ID]bool{}
	user := func() model.ID {
		switch st.rng.Intn(10) {
		case 0:
			return st.users[st.rng.Intn(len(st.users))]
		case 1, 2, 3, 4:
			return st.hub
		}
		return st.likers[st.rng.Intn(len(st.likers))]
	}
	for n := 1 + st.rng.Intn(4); len(cs.Changes) < n; {
		ch := model.Change{}
		switch r := st.rng.Intn(100); {
		case r < 5: // a new user who immediately befriends the hub
			id := st.nextID
			st.nextID++
			st.users = append(st.users, id)
			st.likers = append(st.likers, id)
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddUser, User: model.User{ID: id}})
			ch = model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: id, User2: st.hub}}
		case r < 10: // a new comment the hub likes
			id := st.nextID
			st.nextID++
			st.cmts = append(st.cmts, id)
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddComment,
				Comment: model.Comment{ID: id, Timestamp: st.nextTS, ParentID: st.post, PostID: st.post}})
			st.nextTS++
			ch = model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: st.hub, CommentID: id}}
		case r < 35:
			a, b := user(), user()
			k := friendKey(a, b)
			if a == b || used[k] {
				continue
			}
			kind := model.KindAddFriendship
			if st.friends[k] {
				kind = model.KindRemoveFriendship
			}
			ch = model.Change{Kind: kind, Friendship: model.Friendship{User1: a, User2: b}}
		default:
			u, c := user(), st.cmts[st.rng.Intn(len(st.cmts))]
			k := [2]model.ID{u, c}
			if used[k] {
				continue
			}
			kind := model.KindAddLike
			if st.likes[k] {
				kind = model.KindRemoveLike
			}
			ch = model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
		}
		switch ch.Kind {
		case model.KindAddFriendship, model.KindRemoveFriendship:
			k := friendKey(ch.Friendship.User1, ch.Friendship.User2)
			used[k] = true
			st.friends[k] = ch.Kind == model.KindAddFriendship
		case model.KindAddLike, model.KindRemoveLike:
			k := [2]model.ID{ch.Like.UserID, ch.Like.CommentID}
			used[k] = true
			st.likes[k] = ch.Kind == model.KindAddLike
		}
		cs.Changes = append(cs.Changes, ch)
	}
	return cs
}

// TestQ2EnginesMatchBatchUnderHubSkew pins the hub-degree paths — the probe
// side of grb.ExtractSubmatrix and Q2IncrementalCC's co-liked comment
// detection — on a graph where one user's friend row dwarfs every liker
// set. After Load/Initial and after every change set, the incremental
// engines' answers must equal Q2Batch's, and every comment's maintained
// score must equal the brute-force oracle's.
func TestQ2EnginesMatchBatchUnderHubSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	snap, st := hubSnapshot(rng)
	batch, inc, cc := NewQ2Batch(), NewQ2Incremental(), NewQ2IncrementalCC()
	engines := []Solution{batch, inc, cc}
	for _, eng := range engines {
		if err := eng.Load(snap); err != nil {
			t.Fatalf("%s Load: %v", eng.Name(), err)
		}
	}
	oracle := snap.Clone()
	check := func(step string, results []Result) {
		t.Helper()
		want := oracleQ2(oracle)
		_, commentTS := timestamps(oracle)
		assertResultsEqual(t, batch.Name(), step, oracleTopK(want, commentTS, TopK), results[0])
		for k, eng := range engines[1:] {
			assertResultsEqual(t, eng.Name(), step, results[0], results[k+1])
		}
		index := commentIndex(inc.st)
		for id, score := range want {
			if got := inc.scores[index[id]]; got != score {
				t.Fatalf("%s %s: comment %d scores %d, oracle %d", inc.Name(), step, id, got, score)
			}
		}
		assertCCScores(t, cc, step, want)
	}
	results := make([]Result, len(engines))
	for k, eng := range engines {
		res, err := eng.Initial()
		if err != nil {
			t.Fatalf("%s Initial: %v", eng.Name(), err)
		}
		results[k] = res
	}
	check("initial", results)
	for step := 0; step < 60; step++ {
		cs := st.next()
		oracle.Apply(&cs)
		for k, eng := range engines {
			res, err := eng.Update(&cs)
			if err != nil {
				t.Fatalf("%s update %d: %v", eng.Name(), step, err)
			}
			results[k] = res
		}
		check("update", results)
	}
}
