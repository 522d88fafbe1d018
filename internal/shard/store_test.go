package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// checkStore asserts the invariants of the router's node-indexed store
// against snap, the model state the routed changes were applied to:
//   - each member ring holds exactly the nodes whose find is its root, and
//     size and matCount at the root are the ring's length and materialized
//     members;
//   - the parked nodes are exactly the likeless, unmaterialized comments,
//     and parkedComments counts them;
//   - across all shards, the Q2 partitions hold every user, unparked
//     comment, like and friendship exactly once, each edge on the shard of
//     both its endpoints;
//   - the Q1 partitions, and the Q1 changes of p if it is not nil, place
//     every post at hashShard(post) and every comment and like with its
//     root post.
func checkStore(t testing.TB, r *router, snap *model.Snapshot, p *plan) {
	t.Helper()
	if got, want := len(r.ids), len(snap.Users)+len(snap.Comments); got != want {
		t.Fatalf("router holds %d nodes, model %d users and comments", got, want)
	}
	ringOf := make([]int, len(r.parent))
	for ni := range ringOf {
		ringOf[ni] = -1
	}
	for root := range r.parent {
		if r.find(root) != root {
			continue
		}
		var size, mat int32
		r.eachMember(root, func(ni int) {
			if ringOf[ni] != -1 {
				t.Fatalf("node %d is in the rings of roots %d and %d", ni, ringOf[ni], root)
			}
			ringOf[ni] = root
			size++
			if r.states[ni] == stateMaterialized {
				mat++
			}
		})
		if size != r.size[root] || mat != r.matCount[root] {
			t.Fatalf("root %d: ring of %d nodes, %d materialized; size %d, matCount %d", root, size, mat, r.size[root], r.matCount[root])
		}
	}
	for ni := range r.parent {
		if root := r.find(ni); ringOf[ni] != root {
			t.Fatalf("node %d has root %d but sits in the ring of %d", ni, root, ringOf[ni])
		}
	}

	liked := map[model.ID]bool{}
	for _, l := range snap.Likes {
		liked[l.CommentID] = true
	}
	parked, nParked := map[model.ID]bool{}, 0
	for _, c := range snap.Comments {
		ni, err := r.lookup(commentKey(c.ID))
		if err != nil {
			t.Fatal(err)
		}
		want := !liked[c.ID] && r.states[ni] != stateMaterialized
		if (r.states[ni] == stateParked) != want {
			t.Fatalf("comment %d: state %d, liked %v", c.ID, r.states[ni], liked[c.ID])
		}
		if parked[c.ID] = want; want {
			nParked++
		}
	}
	if r.parkedComments() != nParked {
		t.Fatalf("parkedComments = %d, want %d", r.parkedComments(), nParked)
	}

	userShard := map[model.ID]int{}
	seen := map[any]int{}
	for s := 0; s < r.n; s++ {
		q2 := r.q2Snapshot(s)
		if len(q2.Posts) != len(snap.Posts) {
			t.Fatalf("shard %d: Q2 partition holds %d posts, model %d", s, len(q2.Posts), len(snap.Posts))
		}
		onShard := map[model.ID]bool{}
		for _, u := range q2.Users {
			seen[u]++
			userShard[u.ID] = s
		}
		for _, c := range q2.Comments {
			seen[c]++
			onShard[c.ID] = true
		}
		for _, l := range q2.Likes {
			if seen[l]++; !onShard[l.CommentID] || userShard[l.UserID] != s {
				t.Fatalf("shard %d: like %d→%d leaves the partition", s, l.UserID, l.CommentID)
			}
		}
		for _, f := range q2.Friendships {
			if seen[f]++; userShard[f.User1] != s || userShard[f.User2] != s {
				t.Fatalf("shard %d: friendship %d–%d leaves the partition", s, f.User1, f.User2)
			}
		}
	}
	want := 0
	for _, u := range snap.Users {
		want++
		if seen[u] != 1 {
			t.Fatalf("user %d is in %d Q2 partitions, want 1", u.ID, seen[u])
		}
	}
	for _, c := range snap.Comments {
		if parked[c.ID] {
			continue
		}
		want++
		if seen[c] != 1 {
			t.Fatalf("comment %+v is in %d Q2 partitions, want 1", c, seen[c])
		}
	}
	for _, l := range snap.Likes {
		want++
		if seen[l] != 1 {
			t.Fatalf("like %+v is in %d Q2 partitions, want 1", l, seen[l])
		}
	}
	for _, f := range snap.Friendships {
		if f.User1 > f.User2 {
			f.User1, f.User2 = f.User2, f.User1
		}
		want++
		if seen[f] != 1 {
			t.Fatalf("friendship %+v is in %d Q2 partitions, want 1", f, seen[f])
		}
	}
	if len(seen) != want {
		t.Fatalf("Q2 partitions hold %d distinct entities and edges, model %d", len(seen), want)
	}

	root := map[model.ID]model.ID{}
	for _, c := range snap.Comments {
		root[c.ID] = c.PostID
	}
	posts := 0
	for s := 0; s < r.n; s++ {
		q1 := r.q1Snapshot(snap, s)
		posts += len(q1.Posts)
		for _, p := range q1.Posts {
			if hashShard(p.ID, r.n) != s {
				t.Fatalf("post %d in shard %d's Q1 partition, hashShard %d", p.ID, s, hashShard(p.ID, r.n))
			}
		}
		for _, c := range q1.Comments {
			if hashShard(c.PostID, r.n) != s {
				t.Fatalf("comment %d in shard %d's Q1 partition, its root post's shard is %d", c.ID, s, hashShard(c.PostID, r.n))
			}
		}
		for _, l := range q1.Likes {
			if hashShard(root[l.CommentID], r.n) != s {
				t.Fatalf("like on comment %d in shard %d's Q1 partition, off its root post's shard", l.CommentID, s)
			}
		}
	}
	if posts != len(snap.Posts) {
		t.Fatalf("Q1 partitions hold %d posts, model %d", posts, len(snap.Posts))
	}
	for s := 0; p != nil && s < r.n; s++ {
		for _, ch := range p.q1[s] {
			var post model.ID
			switch ch.Kind {
			case model.KindAddPost:
				post = ch.Post.ID
			case model.KindAddComment:
				post = ch.Comment.PostID
			case model.KindAddLike, model.KindRemoveLike:
				post = root[ch.Like.CommentID]
			default:
				continue
			}
			if hashShard(post, r.n) != s {
				t.Fatalf("%v routed to Q1 shard %d, its root post %d is on %d", ch.Kind, s, post, hashShard(post, r.n))
			}
		}
	}
}

// routeChecked routes cs, applied to st first so the router sees only what
// the writer would pass it, then checks the store against the new state.
func routeChecked(t testing.TB, r *router, st *model.State, cs []model.Change) {
	t.Helper()
	p, err := r.route(&model.ChangeSet{Changes: cs})
	if err != nil {
		t.Fatal(err)
	}
	view, release := st.View()
	defer release()
	checkStore(t, r, view, p)
}

// TestRouterStoreInvariants routes a seeded datagen stream with 35%
// removals at 2 and 4 shards and checks the store after every commit.
func TestRouterStoreInvariants(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 11, ChangeSets: 150, RemovalFraction: 0.35})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			st, err := model.NewState(d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRouter(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			checkStore(t, r, d.Snapshot, nil)
			for k, cs := range d.ChangeSets {
				if err := st.Apply(cs.Changes); err != nil {
					t.Fatalf("change set %d: model: %v", k, err)
				}
				routeChecked(t, r, st, cs.Changes)
			}
			if r.rebalances == 0 {
				t.Fatal("no group migrated: the stream exercised no ring splice across shards")
			}
		})
	}
}

// FuzzRouterStore decodes the input into a short change stream over 8
// users and 8 comments on one post, three bytes per change: an opcode (add
// comment, add or remove like, add or remove friendship, or end of change
// set) and two operands. Changes model.State rejects are dropped. The
// first change set becomes the initial snapshot of a 2-shard router; every
// later one is routed, and the store is checked after each.
func FuzzRouterStore(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 150)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}}}
		for u := model.ID(1); u <= 8; u++ {
			base.Users = append(base.Users, model.User{ID: u})
		}
		st, err := model.NewState(base)
		if err != nil {
			t.Fatal(err)
		}
		var r *router
		var pending []model.Change
		flush := func() {
			if r != nil {
				routeChecked(t, r, st, pending)
			} else {
				view, release := st.View()
				if r, err = newRouter(2, view); err != nil {
					t.Fatal(err)
				}
				checkStore(t, r, view, nil)
				release()
			}
			pending = pending[:0]
		}
		for i := 0; i+2 < len(data) && i < 3*256; i += 3 {
			a, b := model.ID(data[i+1]%8), model.ID(data[i+2]%8)
			var ch model.Change
			switch data[i] % 6 {
			case 0:
				ch = model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: 100 + a, Timestamp: int64(b), ParentID: 1, PostID: 1}}
			case 1:
				ch = model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 1 + a, CommentID: 100 + b}}
			case 2:
				ch = model.Change{Kind: model.KindRemoveLike, Like: model.Like{UserID: 1 + a, CommentID: 100 + b}}
			case 3:
				ch = model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 1 + a, User2: 1 + b}}
			case 4:
				ch = model.Change{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 1 + a, User2: 1 + b}}
			default:
				flush()
				continue
			}
			if st.Apply([]model.Change{ch}) == nil {
				pending = append(pending, ch)
			}
		}
		flush()
	})
}
