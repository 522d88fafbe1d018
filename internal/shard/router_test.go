package shard

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
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
	if _, ok := r.parked[11]; !ok {
		t.Fatal("likeless snapshot comment 11 did not park")
	}
	if _, ok := r.parked[10]; ok {
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
	if _, ok := r.parked[12]; !ok {
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
	if _, ok := r.parked[12]; ok {
		t.Fatal("comment 12 still parked after its first like")
	}
	if got := r.shardOf(commentKey(12)); got != likerShard {
		t.Fatalf("comment 12 materialized on shard %d, want its liker's shard %d", got, likerShard)
	}
	if _, ok := r.states[likerShard].comments[12]; !ok {
		t.Fatal("comment 12 missing from its shard's partition state")
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
// parked set: over random park/unpark sequences with many equal
// timestamps, parkedTopK must equal a brute-force top-3 of r.parked, and
// enough unparks must leave stale heap entries and trigger compaction.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	r, err := newRouter(2, &model.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	next := model.ID(1)
	var live []model.ID // parked ids, for picking unpark targets
	compactions, sawStale := 0, false
	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 45:
			r.park(model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1})
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
			before := len(r.parkedOrder)
			r.unpark(id)
			if len(r.parkedOrder) < before {
				compactions++
			}
		}
		if len(r.parkedOrder) > len(r.parked) {
			sawStale = true
		}
		if len(r.parkedOrder) > 2*len(r.parked) {
			t.Fatalf("step %d: %d heap entries for %d parked comments", step, len(r.parkedOrder), len(r.parked))
		}
		all := make(core.Result, 0, len(r.parked))
		for _, c := range r.parked {
			all = append(all, core.Entry{ID: c.ID, Timestamp: c.Timestamp})
		}
		sort.Slice(all, func(i, j int) bool { return core.Less(all[i], all[j]) })
		want := all[:min(core.TopK, len(all))]
		if got := r.parkedTopK(); got.String() != want.String() {
			t.Fatalf("step %d: parkedTopK = %q, brute force %q", step, got, want)
		}
	}
	if !sawStale || compactions == 0 {
		t.Fatalf("churn left stale entries: %v, compactions: %d; want both", sawStale, compactions)
	}
}
