package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// TestRouterParkedCommentLifecycle is the direct unit test of the router's
// parked-comment lifecycle: a likeless comment belongs to no Q2 partition —
// it parks at the router and ranks through parkedTopK as a virtual
// partition — and its first like materializes it onto the liker's shard as
// a synthetic add, never as a group migration (no retraction op, no donor
// repair, no rebalance).
func TestRouterParkedCommentLifecycle(t *testing.T) {
	snap := &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 5, ParentID: 1, PostID: 1}, // liked: materializes
			{ID: 11, Timestamp: 7, ParentID: 1, PostID: 1}, // likeless: parks
		},
		Users: []model.User{{ID: 100}, {ID: 101}},
		Likes: []model.Like{{UserID: 100, CommentID: 10}},
	}
	r, err := newRouter(2, snap)
	if err != nil {
		t.Fatal(err)
	}

	// Initial analysis: the likeless comment parked, the liked one did not.
	if !isParked(r, 11) {
		t.Fatal("likeless snapshot comment 11 did not park")
	}
	if isParked(r, 10) {
		t.Fatal("liked comment 10 parked")
	}
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking = %q, want %q", got, "11")
	}

	// A new likeless comment parks and outranks the older parked one (equal
	// zero scores, newer timestamp wins).
	p1, err := r.route(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 12, Timestamp: 9, ParentID: 1, PostID: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !isParked(r, 12) {
		t.Fatal("new likeless comment 12 did not park")
	}
	for s := 0; s < r.n; s++ {
		if len(p1.q2[s]) != 0 || len(p1.ops[s]) != 0 {
			t.Fatalf("parking routed Q2 work to shard %d: q2=%v ops=%v", s, p1.q2[s], p1.ops[s])
		}
	}
	if got := r.parkedTopK().String(); got != "12|11" {
		t.Fatalf("parked ranking = %q, want %q", got, "12|11")
	}

	// First like: the comment must materialize onto its liker's shard as a
	// synthetic AddComment followed by the like — and nothing else: no
	// retraction, no rebalance, no work on the other shard.
	likerShard := r.shardOf(userKey(101))
	p2, err := r.route(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if isParked(r, 12) {
		t.Fatal("comment 12 still parked after its first like")
	}
	if got := r.shardOf(commentKey(12)); got != likerShard {
		t.Fatalf("comment 12 materialized on shard %d, want its liker's shard %d", got, likerShard)
	}
	for s := 0; s < r.n; s++ {
		inPartition := false
		for _, c := range r.q2Snapshot(s).Comments {
			inPartition = inPartition || c.ID == 12
		}
		if inPartition != (s == likerShard) {
			t.Fatalf("comment 12 in shard %d's partition: %v, want it only on the liker's shard %d", s, inPartition, likerShard)
		}
	}
	if r.rebalances != 0 {
		t.Fatalf("first like performed %d rebalances, want 0", r.rebalances)
	}
	for s := 0; s < r.n; s++ {
		if len(p2.ops[s]) != 0 {
			t.Fatalf("first like queued migration ops on shard %d: %+v", s, p2.ops[s])
		}
		if s != likerShard && len(p2.q2[s]) != 0 {
			t.Fatalf("first like routed Q2 work to shard %d: %v", s, p2.q2[s])
		}
	}
	stream := p2.q2[likerShard]
	if len(stream) != 2 ||
		stream[0].Kind != model.KindAddComment || stream[0].Comment.ID != 12 ||
		stream[1].Kind != model.KindAddLike || stream[1].Like.CommentID != 12 {
		t.Fatalf("materialization stream = %+v, want synthetic AddComment(12) then AddLike", stream)
	}

	// The remaining parked comment still ranks; the materialized one left
	// the virtual partition.
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking after unpark = %q, want %q", got, "11")
	}
}

// TestParkedTopKMatchesBruteForce is a differential test of the ordered
// parked set: starting from a snapshot's likeless comments, over random
// park/unpark sequences with many equal timestamps, parkedTopK must equal
// a brute-force top-3 of the comments in the parked state.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1}}}
	var live []model.ID // parked ids, for picking unpark targets
	next := model.ID(1)
	for ; next <= 20; next++ {
		snap.Comments = append(snap.Comments, model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1})
		live = append(live, next)
	}
	r, err := newRouter(2, snap)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 45:
			ni, err := r.addComment(model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.park(ni)
			live = append(live, next)
			next++
		default:
			// Half the unparks hit the current top-3, like first likes on
			// the newest comments do; the rest hit any parked comment.
			var id model.ID
			if top := r.parkedTopK(); rng.Intn(2) == 0 && len(top) > 0 {
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
			r.unpark(int(r.nodeOf[nodeComment][id]))
		}
		var all core.Result
		for ni, st := range r.states {
			if st == stateParked {
				all = append(all, core.Entry{ID: r.ids[ni], Timestamp: r.recs[ni].timestamp})
			}
		}
		sort.Slice(all, func(i, j int) bool { return core.Less(all[i], all[j]) })
		want := all[:min(core.TopK, len(all))]
		if got := r.parkedTopK(); got.String() != want.String() {
			t.Fatalf("step %d: parkedTopK = %q, brute force %q", step, got, want)
		}
	}
}

// shardOf reports the shard of k's group.
func (r *router) shardOf(k nodeKey) int {
	ni, err := r.lookup(k)
	if err != nil {
		panic(err)
	}
	return int(r.groupShard[r.find(ni)])
}

// isParked reports whether comment id is in the router's parking.
func isParked(r *router, id model.ID) bool {
	ni, ok := r.nodeOf[nodeComment][id]
	return ok && r.states[ni] == stateParked
}

// owner maps every model entity to its router-side Q2 owner: the shard of
// its group, or -1 for a parked comment.
func owner(r *router, snap *model.Snapshot) map[nodeKey]int {
	own := make(map[nodeKey]int, len(snap.Users)+len(snap.Comments))
	for _, u := range snap.Users {
		own[userKey(u.ID)] = r.shardOf(userKey(u.ID))
	}
	for _, c := range snap.Comments {
		if isParked(r, c.ID) {
			own[commentKey(c.ID)] = -1
		} else {
			own[commentKey(c.ID)] = r.shardOf(commentKey(c.ID))
		}
	}
	return own
}

// inducedSubgraph is the brute-force Q2 subgraph of snap on the entities
// that keep selects: the selected users and comments plus every like and
// friendship among them. It fails the test if an edge leaves the
// selection, because a partition and a migrated group must both be closed
// under the edges Q2 reads.
func inducedSubgraph(t *testing.T, what string, snap *model.Snapshot, keep func(nodeKey) bool) *model.Snapshot {
	t.Helper()
	out := &model.Snapshot{}
	for _, u := range snap.Users {
		if keep(userKey(u.ID)) {
			out.Users = append(out.Users, u)
		}
	}
	for _, c := range snap.Comments {
		if keep(commentKey(c.ID)) {
			out.Comments = append(out.Comments, c)
		}
	}
	for _, l := range snap.Likes {
		if kc, ku := keep(commentKey(l.CommentID)), keep(userKey(l.UserID)); kc != ku {
			t.Fatalf("%s: like %d→%d leaves the selection", what, l.UserID, l.CommentID)
		} else if kc {
			out.Likes = append(out.Likes, l)
		}
	}
	for _, f := range snap.Friendships {
		if k1, k2 := keep(userKey(f.User1)), keep(userKey(f.User2)); k1 != k2 {
			t.Fatalf("%s: friendship %d–%d leaves the selection", what, f.User1, f.User2)
		} else if k1 {
			out.Friendships = append(out.Friendships, f)
		}
	}
	return out
}

// canonical sorts a snapshot's Q2 content (posts excluded) so that two
// renderings of one partition compare equal with reflect.DeepEqual.
func canonical(s *model.Snapshot) *model.Snapshot {
	out := &model.Snapshot{
		Users:       append([]model.User{}, s.Users...),
		Comments:    append([]model.Comment{}, s.Comments...),
		Likes:       append([]model.Like{}, s.Likes...),
		Friendships: append([]model.Friendship{}, s.Friendships...),
	}
	sort.Slice(out.Users, func(i, j int) bool { return out.Users[i].ID < out.Users[j].ID })
	sort.Slice(out.Comments, func(i, j int) bool { return out.Comments[i].ID < out.Comments[j].ID })
	sort.Slice(out.Likes, func(i, j int) bool {
		a, b := out.Likes[i], out.Likes[j]
		return a.CommentID < b.CommentID || a.CommentID == b.CommentID && a.UserID < b.UserID
	})
	sort.Slice(out.Friendships, func(i, j int) bool {
		a, b := out.Friendships[i], out.Friendships[j]
		return a.User1 < b.User1 || a.User1 == b.User1 && a.User2 < b.User2
	})
	return out
}

// retractionSnapshot views a retraction's subgraph as a snapshot, taking
// comment records from the model.
func retractionSnapshot(ret *model.Retraction, snap *model.Snapshot) *model.Snapshot {
	out := &model.Snapshot{Likes: ret.Likes, Friendships: ret.Friendships}
	for _, id := range ret.Users {
		out.Users = append(out.Users, model.User{ID: id})
	}
	byID := make(map[model.ID]model.Comment, len(snap.Comments))
	for _, c := range snap.Comments {
		byID[c.ID] = c
	}
	for _, id := range ret.Comments {
		out.Comments = append(out.Comments, byID[id])
	}
	return out
}

// syntheticSnapshot views a recipient's synthetic add stream as a snapshot.
func syntheticSnapshot(t *testing.T, syn []model.Change) *model.Snapshot {
	t.Helper()
	out := &model.Snapshot{}
	for _, ch := range syn {
		switch ch.Kind {
		case model.KindAddUser:
			out.Users = append(out.Users, ch.User)
		case model.KindAddComment:
			out.Comments = append(out.Comments, ch.Comment)
		case model.KindAddLike:
			out.Likes = append(out.Likes, ch.Like)
		case model.KindAddFriendship:
			out.Friendships = append(out.Friendships, ch.Friendship)
		default:
			t.Fatalf("synthetic stream holds a %v", ch.Kind)
		}
	}
	return out
}

// TestRouterStoreMatchesBruteForce is the oracle of the node-indexed
// router store. Random commits with removals and cross-shard merges are
// routed at 2 and 4 shards while a model.State applies the same commits.
// After every commit each shard's rendered Q2 partition must equal the
// brute-force subgraph of the model on the entities the router assigns to
// that shard. Every migration's retraction must equal the brute-force
// subgraph of the pre-commit model on the moved entities, and the
// recipient's synthetic adds must replay exactly that subgraph. When a
// commit migrates once, the moved entities must be exactly those whose
// owner changed from the donor to the recipient.
func TestRouterStoreMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			d := datagen.Generate(datagen.Config{ScaleFactor: 2, Seed: 5, ChangeSets: 120, RemovalFraction: 0.3})
			st, err := model.NewState(d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newRouter(n, d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			migrations, exact := 0, 0
			for k, cs := range rebatch(d, rng) {
				pre, release := st.View()
				own0 := owner(r, pre)
				p, err := r.route(&cs)
				if err != nil {
					t.Fatalf("commit %d: %v", k, err)
				}
				var rets []*model.Retraction
				var srcs []int
				for s := range p.ops {
					for _, op := range p.ops[s] {
						if op.retract != nil {
							rets, srcs = append(rets, op.retract), append(srcs, s)
						}
					}
				}
				var syns [][]model.Change
				var dests []int
				for s := range p.ops {
					for _, op := range p.ops[s] {
						if op.retract == nil {
							syns, dests = append(syns, op.synthetic), append(dests, s)
						}
					}
				}
				if len(rets) != len(syns) {
					t.Fatalf("commit %d: %d retractions but %d synthetic adds", k, len(rets), len(syns))
				}
				for m, ret := range rets {
					moved := map[nodeKey]bool{}
					for _, id := range ret.Users {
						moved[userKey(id)] = true
					}
					for _, id := range ret.Comments {
						moved[commentKey(id)] = true
					}
					what := fmt.Sprintf("commit %d migration %d", k, m)
					want := canonical(inducedSubgraph(t, what, pre, func(key nodeKey) bool { return moved[key] }))
					if got := canonical(retractionSnapshot(ret, pre)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: retraction %+v, brute force %+v", what, got, want)
					}
					// Ops are chronological per shard only, so the recipient's
					// replay is matched by content.
					replayed := false
					for q := range syns {
						if syns[q] != nil && reflect.DeepEqual(canonical(syntheticSnapshot(t, syns[q])), want) {
							syns[q], replayed = nil, true
							break
						}
					}
					if !replayed {
						t.Fatalf("%s: no recipient replays the moved subgraph %+v", what, want)
					}
				}
				migrations += len(rets)
				if len(rets) == 1 {
					// One migration: the moved entities are exactly those the
					// commit moved from the donor to the recipient.
					own1 := owner(r, pre)
					what := fmt.Sprintf("commit %d", k)
					want := canonical(inducedSubgraph(t, what, pre, func(key nodeKey) bool {
						return own0[key] == srcs[0] && own1[key] == dests[0]
					}))
					if got := canonical(retractionSnapshot(rets[0], pre)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: retraction %+v, moved entities %+v", what, got, want)
					}
					exact++
				}
				release()

				if err := st.Apply(cs.Changes); err != nil {
					t.Fatalf("commit %d: model: %v", k, err)
				}
				post, release := st.View()
				own := owner(r, post)
				for s := 0; s < n; s++ {
					what := fmt.Sprintf("commit %d shard %d", k, s)
					want := canonical(inducedSubgraph(t, what, post, func(key nodeKey) bool { return own[key] == s }))
					got := r.q2Snapshot(s)
					if len(got.Posts) != len(post.Posts) {
						t.Fatalf("%s: %d posts, model %d", what, len(got.Posts), len(post.Posts))
					}
					if got := canonical(got); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: partition %+v, brute force %+v", what, got, want)
					}
				}
				release()
			}
			t.Logf("%d migrations, %d checked against the ownership change", migrations, exact)
			if exact == 0 {
				t.Fatal("no commit migrated a group: the oracle exercised nothing")
			}
		})
	}
}
