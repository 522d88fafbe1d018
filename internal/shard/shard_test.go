package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
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

// engineTotals returns the Record's totals of the served engine key.
func engineTotals(r *Record, key string) (core.EngineStats, bool) {
	for _, e := range r.Engines {
		if e.Key == key {
			return e.EngineStats, true
		}
	}
	return core.EngineStats{}, false
}

// TestShardedEquivalence is the oracle test of the sharded runtime: 1-,
// 2- and 4-shard runtimes replay the same randomized interleaved workload
// (including removals) and must produce change-for-change identical
// answers — to each other and to the batch-recomputation oracle — and
// identical engine totals.
func TestShardedEquivalence(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 99, RemovalFraction: 0.2})
	rng := rand.New(rand.NewSource(1))
	batches := rebatch(d, rng)

	var rts []*Runtime
	for _, n := range []int{1, 2, 4} {
		rt, err := New(n, d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rts = append(rts, rt)
	}
	oracle := newBatchOracle(t, d.Snapshot)

	for _, rt := range rts[1:] {
		for _, key := range []string{"q1", "q2", "q2cc"} {
			if a, b := rts[0].Record().Results[key], rt.Record().Results[key]; a != b {
				t.Fatalf("initial %s: 1-shard %q vs %d-shard %q", key, a, len(rt.lanes), b)
			}
		}
	}

	for k := range batches {
		cs := &batches[k]
		wantQ1, wantQ2 := oracle.update(t, cs)
		for _, rt := range rts {
			rec, err := rt.Commit(cs)
			if err != nil {
				t.Fatalf("commit %d (%d shards): %v", k, len(rt.lanes), err)
			}
			for _, tc := range []struct{ key, want string }{
				{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
			} {
				if got := rec.Results[tc.key]; got != tc.want {
					t.Fatalf("commit %d: %d-shard %s = %q, oracle %q", k, len(rt.lanes), tc.key, got, tc.want)
				}
			}
		}
	}
	t.Logf("replayed %d randomized commits", len(batches))

	// Every engine runs whole on one shard, so its sizes are
	// sharding-invariant, field for field.
	totals := func(rt *Runtime, key string) core.EngineStats {
		e, ok := engineTotals(rt.Record(), key)
		if !ok {
			t.Fatalf("no totals for %s", key)
		}
		return e
	}
	for _, key := range []string{"q1", "q2cc"} {
		for _, rt := range rts[1:] {
			if a, b := totals(rts[0], key), totals(rt, key); a != b {
				t.Errorf("%s: totals diverge across shardings: 1-shard %+v vs %d-shard %+v", key, a, len(rt.lanes), b)
			}
		}
	}
}

// TestCommitRemoveAndReAddInOneSet: a commit may remove an edge and add it
// back, also a like on a parked comment or on a comment the same commit
// adds. Every runtime ends with the edge, as the batch engines do.
func TestCommitRemoveAndReAddInOneSet(t *testing.T) {
	like := func(kind model.ChangeKind, u, c model.ID) model.Change {
		return model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
	}
	friend := func(kind model.ChangeKind, a, b model.ID) model.Change {
		return model.Change{Kind: kind, Friendship: model.Friendship{User1: a, User2: b}}
	}
	const c9 = model.ID(9)
	d := model.ExampleDataset()
	sets := []model.ChangeSet{
		{Changes: []model.Change{
			like(model.KindRemoveLike, model.U2, model.C1),
			like(model.KindAddLike, model.U2, model.C1),
			friend(model.KindRemoveFriendship, model.U3, model.U4),
			friend(model.KindAddFriendship, model.U4, model.U3),
		}},
		{Changes: []model.Change{
			like(model.KindAddLike, model.U1, model.C3),
			like(model.KindRemoveLike, model.U1, model.C3),
			like(model.KindAddLike, model.U1, model.C3),
			{Kind: model.KindAddComment, Comment: model.Comment{ID: c9, Timestamp: 60, ParentID: model.C3, PostID: model.P2}},
			like(model.KindAddLike, model.U2, c9),
			like(model.KindRemoveLike, model.U2, c9),
			like(model.KindAddLike, model.U2, c9),
			like(model.KindAddLike, model.U4, c9),
		}},
	}
	oracle := newBatchOracle(t, d.Snapshot)
	var rts []*Runtime
	for _, n := range []int{1, 4} {
		rt, err := New(n, d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rts = append(rts, rt)
	}
	for k := range sets {
		wantQ1, wantQ2 := oracle.update(t, &sets[k])
		for _, rt := range rts {
			rec, err := rt.Commit(&sets[k])
			if err != nil {
				t.Fatalf("commit %d (%d shards): %v", k, len(rt.lanes), err)
			}
			for _, tc := range []struct{ key, want string }{
				{"q1", wantQ1}, {"q2", wantQ2}, {"q2cc", wantQ2},
			} {
				if got := rec.Results[tc.key]; got != tc.want {
					t.Errorf("commit %d (%d shards): %s = %q, oracle %q", k, len(rt.lanes), tc.key, got, tc.want)
				}
			}
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

// TestMoreShardsThanGroups checks that shards beyond the served lineup,
// which host no engine, are harmless and answers stay exact.
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
// has validated yet. Its model.State rejects a like naming an unknown
// comment or user and a comment rooted at an unknown post, with
// model.ErrIntegrity, before any engine loads. New must leave no goroutine
// behind, neither a start-up worker nor the auditor.
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
			}
			if !errors.Is(err, model.ErrIntegrity) {
				t.Fatalf("%s, %d shards: New = %v, want an integrity violation", tc.what, n, err)
			}
			if got := settledGoroutines(before); got > before {
				t.Fatalf("%s, %d shards: %d goroutines after the failed New, %d before", tc.what, n, got, before)
			}
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to before and returns it then.
func settledGoroutines(before int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return got
}

// TestCloseLeavesNoGoroutine: a runtime starts no long-lived goroutine
// but the auditor, and each commit joins the goroutines it starts, so
// Start, a few commits and Close leave nothing running, at every shard
// count.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3, ChangeSets: 5, RemovalFraction: 0.2})
	for _, n := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		rt, err := New(n, d.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		for k := range d.ChangeSets {
			if _, err := rt.Commit(&d.ChangeSets[k]); err != nil {
				t.Fatalf("%d shards, commit %d: %v", n, k, err)
			}
		}
		rt.Close()
		if got := settledGoroutines(before); got > before {
			t.Fatalf("%d shards: %d goroutines after Close, %d before Start", n, got, before)
		}
	}
}

// failingEngine is a served engine whose every update fails with err.
type failingEngine struct {
	core.Engine
	err error
}

func (f failingEngine) UpdateRefs([]model.Ref) (core.Result, error) { return nil, f.err }

// TestEngineFailureFailsTheCommit swaps a failing engine into the
// runtime's engine table, on the committing goroutine (shard 0) and on a
// goroutine started for the commit (shard 1 of 2). CommitRefs must return
// an error naming the shard and the engine, the failing shard must count
// no commit, and no Record, earlier or new, may change.
func TestEngineFailureFailsTheCommit(t *testing.T) {
	for _, tc := range []struct {
		shards int
		key    string
	}{{1, "q1"}, {1, "q2cc"}, {2, "q1"}, {2, "q2cc"}} {
		t.Run(fmt.Sprintf("shards%d/%s", tc.shards, tc.key), func(t *testing.T) {
			rt, err := New(tc.shards, twoGroupFixture())
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			first := rt.Record()
			good, err := rt.Commit(&model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddLike, Like: model.Like{UserID: 200, CommentID: 10}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{fmt.Sprintf("%+v", *first), fmt.Sprintf("%+v", *good)}
			injected := errors.New("injected failure")
			var e *served
			for i := range rt.engines {
				if rt.engines[i].Key == tc.key {
					e = &rt.engines[i]
				}
			}
			e.eng = failingEngine{e.eng, injected}
			commits := rt.lanes[e.shard].Commits
			_, err = rt.Commit(&model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddLike, Like: model.Like{UserID: 201, CommentID: 10}},
			}})
			if !errors.Is(err, injected) {
				t.Fatalf("commit with a failing %s = %v, want the injected failure", tc.key, err)
			}
			if name := fmt.Sprintf("shard %d: %s update", e.shard, e.eng.Name()); !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name %q", err, name)
			}
			if got := rt.lanes[e.shard].Commits; got != commits {
				t.Fatalf("failing shard %d counted %d commits, %d before the failure", e.shard, got, commits)
			}
			if rt.Record() != good {
				t.Fatal("a failed commit replaced the last Record")
			}
			for k, r := range []*Record{first, good} {
				if got := fmt.Sprintf("%+v", *r); got != want[k] {
					t.Fatalf("record %d changed:\n got  %s\n want %s", k, got, want[k])
				}
			}
		})
	}
}

// failingStartEngine is a served engine whose Attach or Initial, as phase
// names, fails with err.
type failingStartEngine struct {
	core.Engine
	phase string // "load" or "initial"
	err   error
}

func (f failingStartEngine) Attach(p core.Part, refs []model.Ref) error {
	if f.phase == "load" {
		return f.err
	}
	return f.Engine.Attach(p, refs)
}

func (f failingStartEngine) Initial() (core.Result, error) {
	if f.phase == "initial" {
		return nil, f.err
	}
	return f.Engine.Initial()
}

// TestStartFailure swaps an engine whose load or initial evaluation fails
// into the lineup: q1's load, which fails at once while the calling
// goroutine still builds the router that q2cc's load waits for; q2cc's
// load; and either engine's initial evaluation. Start must return that
// engine's error, naming its shard, the engine and the phase, and leave no
// goroutine behind, the other engine's included, at 1 and 2 shards.
func TestStartFailure(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3})
	for _, tc := range []struct{ key, phase string }{
		{"q1", "load"}, {"q2cc", "load"}, {"q1", "initial"}, {"q2cc", "initial"},
	} {
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards%d/%s-%s", n, tc.key, tc.phase), func(t *testing.T) {
				injected := errors.New("injected failure")
				lineup := harness.ServedEngines()
				slot := -1
				for k := range lineup {
					if e := &lineup[k]; e.Key == tc.key {
						good := e.New
						e.New = func() core.Engine { return failingStartEngine{good(), tc.phase, injected} }
						slot = k
					}
				}
				st, err := model.NewState(d.Snapshot)
				if err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				rt, err := start(n, st, 0, lineup, nil)
				if err == nil {
					rt.Close()
					t.Fatalf("start with a failing %s %s succeeded", tc.key, tc.phase)
				}
				if !errors.Is(err, injected) {
					t.Fatalf("start with a failing %s %s = %v, want the injected failure", tc.key, tc.phase, err)
				}
				name := fmt.Sprintf("%s %s", lineup[slot].New().Name(), tc.phase)
				if !strings.Contains(err.Error(), name) {
					t.Fatalf("error %q does not name %q", err, name)
				}
				if got := settledGoroutines(before); got > before {
					t.Fatalf("%d goroutines after the failed start, %d before", got, before)
				}
			})
		}
	}
}

// TestCommitRejectsUnknownReferences: a dangling reference must surface as
// an error rather than a panic or silent misroute. The runtime routes only
// changes its model.State has resolved, so the State rejects each of these,
// with model.ErrIntegrity, before the router or an engine sees it; Commit
// returns that error.
func TestCommitRejectsUnknownReferences(t *testing.T) {
	for _, tc := range []struct {
		what string
		ch   model.Change
	}{
		{"unknown comment", model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 999}}},
		{"like from unknown user", model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 999, CommentID: 10}}},
		{"friendship with unknown user", model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 100, User2: 999}}},
	} {
		st, err := model.NewState(twoGroupFixture())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply([]model.Change{tc.ch}); !errors.Is(err, model.ErrIntegrity) {
			t.Errorf("State.Apply with %s = %v, want an integrity violation", tc.what, err)
		}
		rt, err := New(2, twoGroupFixture())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Commit(&model.ChangeSet{Changes: []model.Change{tc.ch}}); !errors.Is(err, model.ErrIntegrity) {
			t.Errorf("commit with %s = %v, want an integrity violation", tc.what, err)
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
	if q2cc, _ := engineTotals(rec, "q2cc"); commits == 0 || rec.ParkedComments != 1 || q2cc.Comments != 2 {
		t.Fatalf("record after one commit: %+v", *rec)
	}
}
