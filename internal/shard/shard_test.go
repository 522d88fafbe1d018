package shard

import (
	"math/rand"
	"testing"

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

// TestShardedEquivalence is the oracle test of the tentpole: a 4-shard and
// a 1-shard runtime replay the same randomized interleaved workload
// (including removals, which exercise the union-find over-approximation)
// and must produce change-for-change identical answers — both to each
// other and to the batch-recomputation oracle.
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

	res1, res4 := rt1.Results(), rt4.Results()
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if res1[key] != res4[key] {
			t.Fatalf("initial %s: 1-shard %q vs 4-shard %q", key, res1[key], res4[key])
		}
	}

	for k := range batches {
		cs := &batches[k]
		wantQ1, wantQ2 := oracle.update(t, cs)
		res1, err := rt1.Commit(cs)
		if err != nil {
			t.Fatalf("commit %d (1 shard): %v", k, err)
		}
		res4, err := rt4.Commit(cs)
		if err != nil {
			t.Fatalf("commit %d (4 shards): %v", k, err)
		}
		for _, tc := range []struct{ key, want string }{
			{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
		} {
			if res1[tc.key] != tc.want {
				t.Fatalf("commit %d: 1-shard %s = %q, oracle %q", k, tc.key, res1[tc.key], tc.want)
			}
			if res4[tc.key] != tc.want {
				t.Fatalf("commit %d: 4-shard %s = %q, oracle %q (rebalances so far: %d)",
					k, tc.key, res4[tc.key], tc.want, rt4.Rebalances())
			}
		}
	}
	t.Logf("replayed %d randomized commits; 4-shard runtime rebalanced %d group(s) across shards",
		len(batches), rt4.Rebalances())

	// Merged state-size totals must be sharding-invariant: partitioned
	// dimensions sum back to the whole, replicated dimensions (q1 users,
	// q2 posts) are max'd rather than multiplied by the shard count.
	totals1, totals4 := rt1.EngineTotals(), rt4.EngineTotals()
	for _, key := range []string{"q1", "q2", "q2cc"} {
		a, b := totals1[key], totals4[key]
		if a.Posts != b.Posts || a.Comments != b.Comments || a.Users != b.Users || a.NNZ != b.NNZ {
			t.Errorf("%s: totals diverge across shardings: 1-shard %+v vs 4-shard %+v", key, a, b)
		}
	}
}

// TestParkedCommentsRankExactly pins the router's parking of likeless
// comments: they live on no shard, yet must rank exactly (score 0, newest
// first) in the merged Q2 answer, materialize onto their first liker's
// shard without any migration, and stay exact afterwards.
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
	if got := rt3.Results()["q2"]; got != res.String() {
		t.Fatalf("initial q2 with parked comments: %q, oracle %q", got, res.String())
	}

	steps := []model.ChangeSet{
		// First like on parked comment 11: unparks onto 101's shard.
		{Changes: []model.Change{{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 11}}}},
		// A fresh comment parks, and must still outrank older zero-score ones.
		{Changes: []model.Change{{Kind: model.KindAddComment, Comment: model.Comment{ID: 13, Timestamp: 9, ParentID: 1, PostID: 1}}}},
		// Its first like arrives a commit later — the migration-prone case.
		{Changes: []model.Change{{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 13}}}},
	}
	for k := range steps {
		wantQ1, wantQ2 := oracle.update(t, &steps[k])
		res3, err := rt3.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (3 shards): %v", k, err)
		}
		res1, err := rt1.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (1 shard): %v", k, err)
		}
		for _, tc := range []struct{ key, want string }{
			{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
		} {
			if res3[tc.key] != tc.want || res1[tc.key] != tc.want {
				t.Fatalf("step %d %s: 3-shard %q, 1-shard %q, oracle %q",
					k, tc.key, res3[tc.key], res1[tc.key], tc.want)
			}
		}
	}
	// First likes materialize parked comments in place — never migrate.
	if got := rt3.Rebalances(); got != 0 {
		t.Errorf("first likes caused %d rebalances, want 0", got)
	}
	// Comment 12 never got a like: it is the one comment still parked.
	if got := rt3.ParkedComments(); got != 1 {
		t.Errorf("parked comments = %d, want 1", got)
	}
}

// rebalanceFixture builds a graph with two friendship-disjoint co-like
// groups, which a 2-shard runtime must place on different shards, so a
// bridging friendship forces a cross-shard group merge.
func rebalanceFixture() *model.Snapshot {
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

// TestRebalanceOnCrossShardMerge forces the rebalance path: a friendship
// bridging two groups that live on different shards must migrate one group
// (the donor's engines retract it), and results must stay identical to a single
// shard's.
func TestRebalanceOnCrossShardMerge(t *testing.T) {
	snap := rebalanceFixture()
	rt2, err := New(2, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rt1, err := New(1, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()

	// The balanced initial assignment must have split the two equal-sized
	// groups across the shards — otherwise this test exercises nothing.
	if rt2.Rebalances() != 0 {
		t.Fatalf("unexpected rebalances before any commit: %d", rt2.Rebalances())
	}

	steps := []model.ChangeSet{
		// Bridge the groups: 101 and 200 become friends. Both comments'
		// liker sets stay disjoint per component, but the groups must now
		// co-locate.
		{Changes: []model.Change{{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 101, User2: 200}}}},
		// Cross-likes after the merge: 200 likes comment 10, linking the
		// components inside comment 10's induced subgraph.
		{Changes: []model.Change{{Kind: model.KindAddLike, Like: model.Like{UserID: 200, CommentID: 10}}}},
		// And a removal on the merged group (over-approximated grouping).
		{Changes: []model.Change{{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 101, User2: 200}}}},
	}
	for k := range steps {
		res2, err := rt2.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (2 shards): %v", k, err)
		}
		res1, err := rt1.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (1 shard): %v", k, err)
		}
		for _, key := range []string{"q1", "q2", "q2cc"} {
			if res2[key] != res1[key] {
				t.Fatalf("step %d: %s diverged: 2-shard %q vs 1-shard %q", k, key, res2[key], res1[key])
			}
		}
	}
	if rt2.Rebalances() == 0 {
		t.Error("bridging friendship did not trigger a rebalance")
	}
	repairs := 0
	for _, st := range rt2.ShardStats() {
		repairs += st.Repairs
		if st.Depth != 0 {
			t.Errorf("shard %d: nonzero depth %d after barrier", st.Shard, st.Depth)
		}
		if st.Repairs > 0 && st.RepairTotal <= 0 {
			t.Errorf("shard %d: %d repairs but no repair latency recorded", st.Shard, st.Repairs)
		}
	}
	if repairs == 0 {
		t.Error("rebalance did not repair any donor shard incrementally")
	}
}

// TestReceiveThenDonate pins the order of a shard's migration ops. Three
// co-like groups of 3, 4 and 9 entities start on shards 2, 1 and 0. One
// commit bridges the small group into the middle one, which migrates it
// from shard 2 onto shard 1, then bridges the grown group into the big one,
// which migrates it from shard 1 onto shard 0. Shard 1's ops are therefore
// [synthetic, retract]: its engines must add the received group before
// they retract the merged one, and answers must match a single shard's.
func TestReceiveThenDonate(t *testing.T) {
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}}}
	addGroup := func(comment, firstUser model.ID, users int) {
		snap.Comments = append(snap.Comments, model.Comment{ID: comment, Timestamp: int64(comment), ParentID: 1, PostID: 1})
		for u := firstUser; u < firstUser+model.ID(users); u++ {
			snap.Users = append(snap.Users, model.User{ID: u})
			snap.Likes = append(snap.Likes, model.Like{UserID: u, CommentID: comment})
		}
	}
	addGroup(10, 100, 2) // 3 entities: shard 2
	addGroup(20, 200, 3) // 4 entities: shard 1
	addGroup(30, 300, 8) // 9 entities: shard 0

	rt3, err := New(3, snap.Clone())
	if err != nil {
		t.Fatal(err)
	}
	defer rt3.Close()
	rt1, err := New(1, snap.Clone())
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()

	steps := []model.ChangeSet{
		{Changes: []model.Change{
			{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 100, User2: 200}},
			{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 201, User2: 300}},
			{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 20}},
		}},
		// The merged group keeps answering exactly on its new shard.
		{Changes: []model.Change{
			{Kind: model.KindAddLike, Like: model.Like{UserID: 300, CommentID: 10}},
			{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 100, User2: 200}},
		}},
	}
	for k := range steps {
		res3, err := rt3.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (3 shards): %v", k, err)
		}
		res1, err := rt1.Commit(&steps[k])
		if err != nil {
			t.Fatalf("step %d (1 shard): %v", k, err)
		}
		for _, key := range []string{"q1", "q2", "q2cc"} {
			if res3[key] != res1[key] {
				t.Fatalf("step %d: %s diverged: 3-shard %q vs 1-shard %q", k, key, res3[key], res1[key])
			}
		}
	}
	if got := rt3.Rebalances(); got != 2 {
		t.Fatalf("rebalances = %d, want 2 (shard 2 → 1, then shard 1 → 0)", got)
	}
	for _, st := range rt3.ShardStats() {
		want := map[int]int{0: 0, 1: 1, 2: 1}[st.Shard]
		if st.Repairs != want {
			t.Errorf("shard %d: %d repairs, want %d", st.Shard, st.Repairs, want)
		}
	}
}

// TestMoreShardsThanGroups checks that shards left empty by the partition
// are harmless and merged answers stay exact.
func TestMoreShardsThanGroups(t *testing.T) {
	snap := rebalanceFixture()
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
	r8, r1 := rt8.Results(), rt1.Results()
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if r8[key] != r1[key] {
			t.Errorf("initial %s: 8-shard %q vs 1-shard %q", key, r8[key], r1[key])
		}
	}
	cs := &model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: 300}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: 300, CommentID: 20}},
	}}
	res8, err := rt8.Commit(cs)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := rt1.Commit(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"q1", "q2", "q2cc"} {
		if res8[key] != res1[key] {
			t.Errorf("%s: 8-shard %q vs 1-shard %q", key, res8[key], res1[key])
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(0, rebalanceFixture()); err == nil {
		t.Error("New(0, …) succeeded, want error")
	}
	if _, err := New(2, nil); err == nil {
		t.Error("New(2, nil) succeeded, want error")
	}
}

// TestCommitRejectsUnknownReferences: the runtime routes only validated
// change sets, but a dangling reference must surface as an error rather
// than a panic or silent misroute.
func TestCommitRejectsUnknownReferences(t *testing.T) {
	rt, err := New(2, rebalanceFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Commit(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 999}},
	}})
	if err == nil {
		t.Error("commit with unknown comment succeeded, want error")
	}
}
