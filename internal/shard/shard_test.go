package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// batchOracle drives the batch engines through the same commit sequence as
// the runtimes under test; batch recomputation per step is the ground
// truth the paper's incremental engines are validated against.
type batchOracle struct {
	q1 *core.Q1Batch
	q2 *core.Q2Batch
}

func newBatchOracle(t *testing.T, snap *model.Snapshot) *batchOracle {
	t.Helper()
	o := &batchOracle{q1: core.NewQ1Batch(), q2: core.NewQ2Batch()}
	if err := o.q1.Load(snap); err != nil {
		t.Fatalf("oracle q1 load: %v", err)
	}
	if err := o.q2.Load(snap); err != nil {
		t.Fatalf("oracle q2 load: %v", err)
	}
	if _, err := o.q1.Initial(); err != nil {
		t.Fatalf("oracle q1 initial: %v", err)
	}
	if _, err := o.q2.Initial(); err != nil {
		t.Fatalf("oracle q2 initial: %v", err)
	}
	return o
}

func (o *batchOracle) update(t *testing.T, cs *model.ChangeSet) (q1, q2 string) {
	t.Helper()
	r1, err := o.q1.Update(cs)
	if err != nil {
		t.Fatalf("oracle q1 update: %v", err)
	}
	r2, err := o.q2.Update(cs)
	if err != nil {
		t.Fatalf("oracle q2 update: %v", err)
	}
	return r1.String(), r2.String()
}

// rebatch flattens a dataset's change stream and re-splits it at random
// boundaries, interleaving entity kinds across commits differently from
// the original grouping while preserving the validity-giving global order.
func rebatch(d *model.Dataset, rng *rand.Rand) []model.ChangeSet {
	var all []model.Change
	for k := range d.ChangeSets {
		all = append(all, d.ChangeSets[k].Changes...)
	}
	var out []model.ChangeSet
	for len(all) > 0 {
		n := 1 + rng.Intn(7)
		if n > len(all) {
			n = len(all)
		}
		out = append(out, model.ChangeSet{Changes: all[:n]})
		all = all[n:]
	}
	return out
}

// TestShardedEquivalence is the oracle test of the sharded runtime: a
// 4-shard and a 1-shard runtime replay the same randomized interleaved
// workload (including removals) and must produce change-for-change
// identical answers — both to each other and to the batch-recomputation
// oracle.
func TestShardedEquivalence(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 99, RemovalFraction: 0.2})
	rng := rand.New(rand.NewSource(1))
	batches := rebatch(d, rng)

	rt1, err := New(1, d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()
	rt4, err := New(4, d.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer rt4.Close()
	oracle := newBatchOracle(t, d.Snapshot)

	res1, res4 := rt1.Record().Results, rt4.Record().Results
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if res1[key] != res4[key] {
			t.Fatalf("initial %s: 1-shard %q vs 4-shard %q", key, res1[key], res4[key])
		}
	}

	for k := range batches {
		cs := &batches[k]
		wantQ1, wantQ2 := oracle.update(t, cs)
		rec1, err := rt1.Commit(cs)
		if err != nil {
			t.Fatalf("commit %d (1 shard): %v", k, err)
		}
		rec4, err := rt4.Commit(cs)
		if err != nil {
			t.Fatalf("commit %d (4 shards): %v", k, err)
		}
		res1, res4 := rec1.Results, rec4.Results
		for _, tc := range []struct{ key, want string }{
			{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
		} {
			if res1[tc.key] != tc.want {
				t.Fatalf("commit %d: 1-shard %s = %q, oracle %q", k, tc.key, res1[tc.key], tc.want)
			}
			if res4[tc.key] != tc.want {
				t.Fatalf("commit %d: 4-shard %s = %q, oracle %q", k, tc.key, res4[tc.key], tc.want)
			}
		}
	}
	t.Logf("replayed %d randomized commits", len(batches))

	// Merged state-size totals must be sharding-invariant: partitioned
	// dimensions sum back to the whole, and q1 users, replicated into every
	// Q1 partition, are max'd rather than multiplied by the shard count.
	totals1, totals4 := rt1.Record().Engines, rt4.Record().Engines
	for _, key := range []string{"q1", "q2", "q2cc"} {
		a, b := totals1[key], totals4[key]
		if a.Posts != b.Posts || a.Comments != b.Comments || a.Users != b.Users || a.NNZ != b.NNZ {
			t.Errorf("%s: totals diverge across shardings: 1-shard %+v vs 4-shard %+v", key, a, b)
		}
	}
}

// TestParkedCommentsRankExactly pins the router's parking of likeless
// comments: they live in no engine, yet must rank exactly (score 0, newest
// first) in the merged Q2 answer, reach the Q2 engines at their first like,
// and stay exact afterwards.
func TestParkedCommentsRankExactly(t *testing.T) {
	snap := &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 5, ParentID: 1, PostID: 1},
			{ID: 11, Timestamp: 7, ParentID: 1, PostID: 1},
			{ID: 12, Timestamp: 6, ParentID: 1, PostID: 1},
		},
		Users: []model.User{{ID: 100}, {ID: 101}},
		Likes: []model.Like{{UserID: 100, CommentID: 10}},
	}
	oracle := newBatchOracle(t, snap.Clone())
	rt3, err := New(3, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt3.Close()
	rt1, err := New(1, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()

	res, err := oracle.q2.Initial()
	if err != nil {
		t.Fatal(err)
	}
	if got := rt3.Record().Results["q2"]; got != res.String() {
		t.Fatalf("initial q2 with parked comments: %q, oracle %q", got, res.String())
	}

	steps := []model.ChangeSet{
		// First like on parked comment 11: unparks into the Q2 engines.
		{Changes: []model.Change{{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 11}}}},
		// A fresh comment parks, and must still outrank older zero-score ones.
		{Changes: []model.Change{{Kind: model.KindAddComment, Comment: model.Comment{ID: 13, Timestamp: 9, ParentID: 1, PostID: 1}}}},
		// Its first like arrives a commit later.
		{Changes: []model.Change{{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 13}}}},
	}
	for k := range steps {
		wantQ1, wantQ2 := oracle.update(t, &steps[k])
		rec3, err := rt3.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (3 shards): %v", k, err)
		}
		rec1, err := rt1.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (1 shard): %v", k, err)
		}
		res3, res1 := rec3.Results, rec1.Results
		for _, tc := range []struct{ key, want string }{
			{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
		} {
			if res3[tc.key] != tc.want || res1[tc.key] != tc.want {
				t.Fatalf("step %d %s: 3-shard %q, 1-shard %q, oracle %q",
					k, tc.key, res3[tc.key], res1[tc.key], tc.want)
			}
		}
	}
	// Comment 12 never got a like: it is the one comment still parked.
	if got := rt3.Record().ParkedComments; got != 1 {
		t.Errorf("parked comments = %d, want 1", got)
	}
}

// twoGroupFixture builds a graph with two friendship-disjoint co-like
// groups on two posts.
func twoGroupFixture() *model.Snapshot {
	return &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}, {ID: 2, Timestamp: 2}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1},
			{ID: 20, Timestamp: 4, ParentID: 2, PostID: 2},
		},
		Users: []model.User{{ID: 100}, {ID: 101}, {ID: 200}, {ID: 201}},
		Likes: []model.Like{
			{UserID: 100, CommentID: 10}, {UserID: 101, CommentID: 10},
			{UserID: 200, CommentID: 20}, {UserID: 201, CommentID: 20},
		},
		Friendships: []model.Friendship{{User1: 100, User2: 101}, {User1: 200, User2: 201}},
	}
}

// TestMoreShardsThanGroups checks that shards left empty by the partition
// are harmless and merged answers stay exact.
func TestMoreShardsThanGroups(t *testing.T) {
	snap := twoGroupFixture()
	rt8, err := New(8, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt8.Close()
	rt1, err := New(1, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()
	r8, r1 := rt8.Record().Results, rt1.Record().Results
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if r8[key] != r1[key] {
			t.Errorf("initial %s: 8-shard %q vs 1-shard %q", key, r8[key], r1[key])
		}
	}
	cs := &model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 300}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 300, CommentID: 20}},
	}}
	rec8, err := rt8.Commit(cs)
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := rt1.Commit(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if rec8.Results[key] != rec1.Results[key] {
			t.Errorf("%s: 8-shard %q vs 1-shard %q", key, rec8.Results[key], rec1.Results[key])
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(0, twoGroupFixture()); err == nil {
		t.Error("New(0, …) succeeded, want error")
	}
	if _, err := New(2, nil); err == nil {
		t.Error("New(2, nil) succeeded, want error")
	}
}

// TestNewRejectsDanglingSnapshots: New may be handed a snapshot nobody
// has validated yet (the server validates alongside it). A like naming an
// unknown comment stops the router; one naming an unknown user, and a
// comment rooted at an unknown post, stop an engine's load. New must
// return an error and leave no goroutine behind, neither a start-up worker
// nor a shard writer.
func TestNewRejectsDanglingSnapshots(t *testing.T) {
	for _, tc := range []struct {
		what   string
		mutate func(s *model.Snapshot)
	}{
		{"like references unknown comment", func(s *model.Snapshot) {
			s.Likes = append(s.Likes, model.Like{UserID: 100, CommentID: 999})
		}},
		{"like references unknown user", func(s *model.Snapshot) {
			s.Likes = append(s.Likes, model.Like{UserID: 999, CommentID: 10})
		}},
		{"comment roots at unknown post", func(s *model.Snapshot) {
			s.Comments = append(s.Comments, model.Comment{ID: 11, ParentID: 1, PostID: 99})
		}},
	} {
		for _, n := range []int{1, 3} {
			snap := twoGroupFixture()
			tc.mutate(snap)
			before := runtime.NumGoroutine()
			rt, err := New(n, snap)
			if err == nil {
				rt.Close()
				t.Fatalf("%s, %d shards: New succeeded, want error", tc.what, n)
			}
			got := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
				time.Sleep(5 * time.Millisecond)
			}
			if got > before {
				t.Fatalf("%s, %d shards: %d goroutines after the failed New, %d before", tc.what, n, got, before)
			}
		}
	}
}

// TestCommitRejectsUnknownReferences: the runtime routes only validated
// change sets, but a dangling reference must surface as an error rather
// than a panic or silent misroute. The router rejects an unknown comment
// up front; it tracks no users, so the engines' own id resolution rejects
// an unknown user.
func TestCommitRejectsUnknownReferences(t *testing.T) {
	for _, tc := range []struct {
		what string
		ch   model.Change
	}{
		{"unknown comment", model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 999}}},
		{"like from unknown user", model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 999, CommentID: 10}}},
		{"friendship with unknown user", model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 100, User2: 999}}},
	} {
		rt, err := New(2, twoGroupFixture())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Commit(&model.ChangeSet{Changes: []model.Change{tc.ch}}); err == nil {
			t.Errorf("commit with %s succeeded, want error", tc.what)
		}
		rt.Close()
	}
}

// TestRecordsAreImmutable: a serving layer publishes each commit's Record
// and readers keep it while later commits run, so a later Commit must
// build a new Record and leave every earlier one as it was.
func TestRecordsAreImmutable(t *testing.T) {
	rt, err := New(2, twoGroupFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	first := rt.Record()
	want := fmt.Sprintf("%+v", *first)
	if len(first.Shards) != 2 || first.ParkedComments != 0 {
		t.Fatalf("initial record %s: want 2 shards, no parked comment", want)
	}
	rec, err := rt.Commit(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 30, Timestamp: 9, ParentID: 1, PostID: 1}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 200, CommentID: 10}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", *first); got != want {
		t.Fatalf("commit changed the initial record:\n got  %s\n want %s", got, want)
	}
	if rec == first || rt.Record() != rec {
		t.Fatal("Commit must return a new record, and Record must return it")
	}
	commits := 0
	for _, st := range rec.Shards {
		commits += st.Commits
	}
	if commits == 0 || rec.ParkedComments != 1 || rec.Engines["q2"].Comments != 2 {
		t.Fatalf("record after one commit: %+v", *rec)
	}
}
