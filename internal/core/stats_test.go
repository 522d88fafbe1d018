package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grb"
	"repro/internal/model"
)

// TestEngineStats checks that every engine reports plausible state sizes
// after loading, and that sizes grow with updates.
func TestEngineStats(t *testing.T) {
	d := model.ExampleDataset()
	engines := []Solution{
		NewQ1Batch(), NewQ1Incremental(), NewQ2Batch(), NewQ2Incremental(), NewQ2IncrementalCC(),
	}
	for _, sol := range engines {
		sr, ok := sol.(StatsReporter)
		if !ok {
			t.Fatalf("%s: does not implement StatsReporter", sol.Name())
		}
		if err := sol.Load(d.Snapshot); err != nil {
			t.Fatalf("%s load: %v", sol.Name(), err)
		}
		if _, err := sol.Initial(); err != nil {
			t.Fatalf("%s initial: %v", sol.Name(), err)
		}
		st := sr.Stats()
		if st.Posts != len(d.Snapshot.Posts) || st.Comments != len(d.Snapshot.Comments) ||
			st.Users != len(d.Snapshot.Users) {
			t.Errorf("%s %s: entity counts %+v do not match snapshot (%d/%d/%d)",
				sol.Name(), sol.Query(), st,
				len(d.Snapshot.Posts), len(d.Snapshot.Comments), len(d.Snapshot.Users))
		}
		if st.NNZ == 0 {
			t.Errorf("%s %s: zero nnz after load", sol.Name(), sol.Query())
		}
		before := st.NNZ
		for k := range d.ChangeSets {
			if _, err := sol.Update(&d.ChangeSets[k]); err != nil {
				t.Fatalf("%s update %d: %v", sol.Name(), k, err)
			}
		}
		if after := sr.Stats().NNZ; after <= before {
			t.Errorf("%s %s: nnz did not grow across insert-only updates (%d -> %d)",
				sol.Name(), sol.Query(), before, after)
		}
	}
}

// keptParts names a graph's non-nil matrices.
func keptParts(g *graph) string {
	var out []string
	for _, p := range []struct {
		name string
		kept bool
	}{
		{"rootPost", g.rootPost != nil}, {"rootPostT", g.rootPostT != nil},
		{"likes", g.likes != nil}, {"likesT", g.likesT != nil}, {"friends", g.friends != nil},
	} {
		if p.kept {
			out = append(out, p.name)
		}
	}
	return strings.Join(out, " ")
}

// TestEnginesKeepOnlyWhatTheyRead pins the parts each matrix engine holds
// after Load, Initial and an Update that adds a post, a comment, a like and
// a friendship: only the matrices its algorithm reads.
func TestEnginesKeepOnlyWhatTheyRead(t *testing.T) {
	q1b, q1, q2b, q2, q2i := NewQ1Batch(), NewQ1Incremental(), NewQ2Batch(), NewQ2Incremental(), NewQ2IncrementalIncidence()
	for _, e := range []struct {
		name string
		sol  Solution
		g    func() *graph
		want string
	}{
		{"Q1Batch", q1b, func() *graph { return q1b.g }, "rootPost likes"},
		{"Q1Incremental", q1, func() *graph { return q1.g }, "rootPostT"},
		{"Q2Batch", q2b, func() *graph { return q2b.g }, "likes friends"},
		{"Q2Incremental", q2, func() *graph { return q2.g }, "likes likesT friends"},
		{"Q2IncrementalIncidence", q2i, func() *graph { return q2i.g }, "likes likesT friends"},
	} {
		t.Run(e.name, func(t *testing.T) {
			if err := e.sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.sol.Initial(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.sol.Update(&model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddPost, Post: model.Post{ID: 2, Timestamp: 8}},
				{Kind: model.KindAddComment, Comment: model.Comment{ID: 30, Timestamp: 9, ParentID: 2, PostID: 2}},
				{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 30}},
				{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 101, User2: 200}},
			}}); err != nil {
				t.Fatal(err)
			}
			if got := keptParts(e.g()); got != e.want {
				t.Fatalf("keeps %q, want %q", got, e.want)
			}
		})
	}
}

// matrices lists a matrix engine's maintained matrices: the non-nil ones.
func (g *graph) matrices() []*grb.Matrix[bool] {
	var out []*grb.Matrix[bool]
	for _, m := range []*grb.Matrix[bool]{g.rootPost, g.rootPostT, g.likes, g.likesT, g.friends} {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// TestMatrixEngineStatsNeverAssemble: after an incremental Update the
// matrix engines hold pending tuples, Stats reports them, and reading Stats
// assembles nothing — observation must not cost a CSR rebuild per commit.
func TestMatrixEngineStatsNeverAssemble(t *testing.T) {
	q1, q2 := NewQ1Incremental(), NewQ2Incremental()
	engines := map[string]struct {
		sol Solution
		g   func() *graph
	}{
		"Q1Incremental": {q1, func() *graph { return q1.g }},
		"Q2Incremental": {q2, func() *graph { return q2.g }},
	}
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			if err := e.sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.sol.Initial(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.sol.Update(&model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddComment, Comment: model.Comment{ID: 30, Timestamp: 9, ParentID: 1, PostID: 1}},
				{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 30}},
				{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 101, User2: 200}},
			}}); err != nil {
				t.Fatal(err)
			}
			ms := e.g().matrices()
			before := make([]int, len(ms))
			pending := 0
			for k, m := range ms {
				before[k] = m.NPending()
				pending += m.NPending()
			}
			st := e.sol.(StatsReporter).Stats()
			if st.Pending == 0 || st.Pending != pending {
				t.Fatalf("Stats().Pending = %d, want the matrices' %d pending tuples (> 0)", st.Pending, pending)
			}
			for k, m := range ms {
				if m.NPending() != before[k] {
					t.Fatalf("Stats() assembled matrix %d: NPending %d -> %d", k, before[k], m.NPending())
				}
			}
			// NNZ counts pending updates: it matches the assembled count.
			nnz := 0
			for _, m := range ms {
				m.Wait()
				nnz += m.NVals()
			}
			if st.NNZ != nnz {
				t.Fatalf("Stats().NNZ = %d before assembly, %d after", st.NNZ, nnz)
			}
		})
	}
}

// recountCC is Q2IncrementalCC's stored edge count by a full walk of its
// adjacency lists — what its Stats counters must equal.
func recountCC(s *Q2IncrementalCC) int {
	n := 0
	for _, l := range s.adj {
		n += len(l) // friends, then likes
	}
	return n
}

// TestQ2CCStatsCountersMatchRecount drives the CC engine through random
// like and friendship additions and removals on a few disjoint islands and
// checks after every step that the O(1) Stats counters equal a full
// recount and the edges the test's own model holds.
func TestQ2CCStatsCountersMatchRecount(t *testing.T) {
	const islands, usersPer, commentsPer = 4, 6, 4
	rng := rand.New(rand.NewSource(11))
	user := func(is, k int) model.ID { return model.ID(1000*is + k) }
	comment := func(is, k int) model.ID { return model.ID(1000*is + 500 + k) }
	post := model.Post{ID: 1, Timestamp: 1}
	snap := &model.Snapshot{Posts: []model.Post{post}}
	for is := 0; is < islands; is++ {
		for k := 0; k < usersPer; k++ {
			snap.Users = append(snap.Users, model.User{ID: user(is, k)})
		}
		for k := 0; k < commentsPer; k++ {
			snap.Comments = append(snap.Comments, model.Comment{ID: comment(is, k), Timestamp: int64(10*is + k), ParentID: 1, PostID: 1})
		}
	}
	// The test's model: per island, the live like and friendship edges.
	likes := make([]map[model.Like]bool, islands)
	friends := make([]map[model.Friendship]bool, islands)
	for is := range likes {
		likes[is] = map[model.Like]bool{}
		friends[is] = map[model.Friendship]bool{}
	}
	s := NewQ2IncrementalCC()
	if err := s.Load(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Initial(); err != nil {
		t.Fatal(err)
	}
	check := func(step int) {
		t.Helper()
		want := 0
		for is := range likes {
			want += len(likes[is]) + 2*len(friends[is])
		}
		if got := s.Stats().NNZ; got != recountCC(s) || got != want {
			t.Fatalf("step %d: Stats().NNZ = %d, recount %d, model %d", step, got, recountCC(s), want)
		}
	}
	for step := 0; step < 400; step++ {
		is := rng.Intn(islands)
		var ch model.Change
		if rng.Intn(2) == 0 {
			l := model.Like{UserID: user(is, rng.Intn(usersPer)), CommentID: comment(is, rng.Intn(commentsPer))}
			if likes[is][l] {
				ch = model.Change{Kind: model.KindRemoveLike, Like: l}
				delete(likes[is], l)
			} else {
				ch = model.Change{Kind: model.KindAddLike, Like: l}
				likes[is][l] = true
			}
		} else {
			a, b := rng.Intn(usersPer), rng.Intn(usersPer-1)
			if b >= a {
				b++
			}
			f := model.Friendship{User1: user(is, min(a, b)), User2: user(is, max(a, b))}
			if friends[is][f] {
				ch = model.Change{Kind: model.KindRemoveFriendship, Friendship: f}
				delete(friends[is], f)
			} else {
				ch = model.Change{Kind: model.KindAddFriendship, Friendship: f}
				friends[is][f] = true
			}
		}
		if _, err := s.Update(&model.ChangeSet{Changes: []model.Change{ch}}); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
}

// twoGroupSnapshot builds two friendship-disjoint co-like groups.
//
//	group A: users 100, 101 (friends) both like comment 10 (score 4)
//	group B: users 200, 201 (friends) both like comment 20,
//	         user 202 likes comments 20 and 21       (c20 score 5, c21 1)
func twoGroupSnapshot() *model.Snapshot {
	return &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1},
			{ID: 20, Timestamp: 4, ParentID: 1, PostID: 1},
			{ID: 21, Timestamp: 5, ParentID: 1, PostID: 1},
		},
		Users: []model.User{{ID: 100}, {ID: 101}, {ID: 200}, {ID: 201}, {ID: 202}},
		Likes: []model.Like{
			{UserID: 100, CommentID: 10}, {UserID: 101, CommentID: 10},
			{UserID: 200, CommentID: 20}, {UserID: 201, CommentID: 20},
			{UserID: 202, CommentID: 20}, {UserID: 202, CommentID: 21},
		},
		Friendships: []model.Friendship{
			{User1: 100, User2: 101}, {User1: 200, User2: 201},
		},
	}
}
