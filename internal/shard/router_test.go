package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// routerOf returns the router Start builds on st, from a View of st
// released once the router is built.
func routerOf(st *model.State) *router {
	view, release := st.View()
	defer release()
	return newRouter(st, view)
}

// TestRouterParkedCommentLifecycle is the direct unit test of the router's
// parked-comment lifecycle: a likeless comment reaches no Q2 engine — it
// parks at the router and ranks through parkedTopK as a virtual partition —
// and its first like hands it to the Q2 engines as a synthetic
// AddComment ahead of the like.
func TestRouterParkedCommentLifecycle(t *testing.T) {
	snap := &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 5, ParentID: 1, PostID: 1}, // liked: in the Q2 engines
			{ID: 11, Timestamp: 7, ParentID: 1, PostID: 1}, // likeless: parks
		},
		Users: []model.User{{ID: 100}, {ID: 101}},
		Likes: []model.Like{{UserID: 100, CommentID: 10}},
	}
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := routerOf(st)

	// Initial analysis: the likeless comment parked, the liked one did not.
	if !isParked(r, 11) {
		t.Fatal("likeless snapshot comment 11 did not park")
	}
	if isParked(r, 10) {
		t.Fatal("liked comment 10 parked")
	}
	var comments []model.ID
	for _, ci := range r.q2Comments.Of {
		id, _ := st.CommentIDTime(int(ci))
		comments = append(comments, id)
	}
	if !reflect.DeepEqual(comments, []model.ID{10}) {
		t.Fatalf("initial Q2 engines hold comments %v, want only 10", comments)
	}
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking = %q, want %q", got, "11")
	}

	// A new likeless comment parks and outranks the older parked one (equal
	// zero scores, newer timestamp wins).
	p1 := routeChanges(t, r, model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: 12, Timestamp: 9, ParentID: 1, PostID: 1}})
	if !isParked(r, 12) {
		t.Fatal("new likeless comment 12 did not park")
	}
	if len(p1) != 0 {
		t.Fatalf("parking routed Q2 work: %v", p1)
	}
	if got := r.parkedTopK().String(); got != "12|11" {
		t.Fatalf("parked ranking = %q, want %q", got, "12|11")
	}

	// First like: the Q2 stream is a synthetic AddComment followed by the
	// like, and nothing else.
	p2 := routeChanges(t, r, model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}})
	if isParked(r, 12) {
		t.Fatal("comment 12 still parked after its first like")
	}
	want := []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 12, Timestamp: 9, ParentID: 1, PostID: 1}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}},
	}
	if got := r.q2Changes(p2); !reflect.DeepEqual(got, want) {
		t.Fatalf("materialization stream = %+v, want %+v", got, want)
	}

	// The remaining parked comment still ranks; the materialized one left
	// the virtual partition.
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking after unpark = %q, want %q", got, "11")
	}
}

// routeChanges applies changes to the router's State and routes them,
// returning the Q2 stream.
func routeChanges(t *testing.T, r *router, changes ...model.Change) []model.Ref {
	t.Helper()
	refs, err := r.st.Apply(changes)
	if err != nil {
		t.Fatal(err)
	}
	return r.route(refs)
}

// TestParkedTopKMatchesBruteForce is a differential test of the ordered
// parked set: starting from a snapshot's likeless comments, over random
// sequences of new comments (which park) and first likes (which unpark)
// with many equal timestamps, parkedTopK must equal a brute-force top-3 of
// the comments in the parked state.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1}}, Users: []model.User{{ID: 1}}}
	var live []model.ID // parked ids, for picking unpark targets
	next := model.ID(1)
	for ; next <= 20; next++ {
		snap.Comments = append(snap.Comments, model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1})
		live = append(live, next)
	}
	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := routerOf(st)
	for step := 0; step < 5000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 45:
			routeChanges(t, r, model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: next, Timestamp: int64(rng.Intn(8)), ParentID: 1, PostID: 1}})
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
			routeChanges(t, r, model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 1, CommentID: id}})
		}
		var all core.Result
		for ci, local := range r.q2Comments.Local {
			if local < 0 {
				id, ts := st.CommentIDTime(ci)
				all = append(all, core.Entry{ID: id, Timestamp: ts})
			}
		}
		sort.Slice(all, func(i, j int) bool { return core.Less(all[i], all[j]) })
		want := all[:min(core.TopK, len(all))]
		if got := r.parkedTopK(); got.String() != want.String() {
			t.Fatalf("step %d: parkedTopK = %q, brute force %q", step, got, want)
		}
	}
}

// isParked reports whether comment id is in the router's parking.
func isParked(r *router, id model.ID) bool {
	ci := commentIndex(r.st, id)
	return ci >= 0 && r.q2Comments.Local[ci] < 0
}
