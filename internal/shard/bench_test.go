package shard

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// donorFixture builds a 2-shard workload in which a small group (the
// migrated-group size, fixed) bridges into a big group on the other shard,
// forcing the donor — which also holds a `remaining`-sized partition — to
// repair. The deterministic initial placement puts the biggest
// group alone on shard 0 and the remaining + small groups on shard 1, so
// the bridge always migrates the small group 1→0 and the donor's surviving
// partition has exactly `remaining`+1 entities.
//
// BenchmarkDonorRepair sweeps `remaining` with the group size fixed: the
// DeltaEngine retraction stays flat as the surviving partition grows.
func donorFixture(remaining, group int) (*model.Snapshot, *model.ChangeSet) {
	big := remaining + group + 10 // strictly biggest: placed first, wins the merge
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}}}
	addGroup := func(comment model.ID, firstUser model.ID, n int) {
		snap.Comments = append(snap.Comments, model.Comment{ID: comment, Timestamp: int64(comment), ParentID: 1, PostID: 1})
		for i := 0; i < n; i++ {
			u := firstUser + model.ID(i)
			snap.Users = append(snap.Users, model.User{ID: u})
			snap.Likes = append(snap.Likes, model.Like{UserID: u, CommentID: comment})
		}
	}
	addGroup(10, 1_000_000, big)
	addGroup(11, 2_000_000, remaining)
	addGroup(12, 3_000_000, group)
	bridge := &model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 3_000_000, User2: 1_000_000}},
	}}
	return snap, bridge
}

// BenchmarkDonorRepair times the cross-shard merge commit when the donor
// subtracts the migrated group through core.DeltaEngine: cost tracks the
// migrated-group size, not the donor's surviving partition.
func BenchmarkDonorRepair(b *testing.B) {
	const group = 8
	for _, remaining := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("remaining%d", remaining), func(b *testing.B) {
			snap, bridge := donorFixture(remaining, group)
			var repairNs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt, err := New(2, snap.Clone())
				if err != nil {
					b.Fatal(err)
				}
				cs := &model.ChangeSet{Changes: append([]model.Change(nil), bridge.Changes...)}
				b.StartTimer()
				if _, err := rt.Commit(cs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				repairs := 0
				for _, st := range rt.ShardStats() {
					repairs += st.Repairs
					repairNs += float64(st.RepairTotal.Nanoseconds())
				}
				if repairs == 0 {
					b.Fatal("the bridge commit repaired no donor")
				}
				rt.Close()
			}
			// The retraction itself; the surrounding ns/op also pays commit
			// bookkeeping and the per-commit stats observation.
			b.ReportMetric(repairNs/float64(b.N), "repair-ns/op")
		})
	}
}

// routerFixture is the scale-factor-32 snapshot BenchmarkNewRouter and
// TestRouterRetainedBytes build a 4-shard router of, and its entity count
// (posts, comments, users, likes and friendships).
func routerFixture() (*model.Snapshot, int) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	return snap, len(snap.Posts) + len(snap.Comments) + len(snap.Users) + len(snap.Likes) + len(snap.Friendships)
}

// heapAfterGC is the live heap: HeapAlloc right after a collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkNewRouter builds the 4-shard router of routerFixture and reports
// the heap it retains per snapshot entity: the router's share of a server's
// memory, beside the engines and model.State.
func BenchmarkNewRouter(b *testing.B) {
	snap, entities := routerFixture()
	var retained int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heapAfterGC()
		b.StartTimer()
		r, err := newRouter(4, snap)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained = heapAfterGC() - before
		runtime.KeepAlive(r)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(entities), "retained-B/entity")
}

// TestRouterRetainedBytes is a deterministic memory gate on the router: the
// 4-shard router of routerFixture must retain at most 110 bytes per
// snapshot entity. The node-indexed store with member rings measures 87 on
// Go 1.24; the per-entity maps and member slices it replaced took 159.
// Map layouts differ across Go versions, hence the headroom.
func TestRouterRetainedBytes(t *testing.T) {
	snap, entities := routerFixture()
	before := heapAfterGC()
	r, err := newRouter(4, snap)
	if err != nil {
		t.Fatal(err)
	}
	retained := heapAfterGC() - before
	runtime.KeepAlive(r)
	runtime.KeepAlive(snap) // or the second collection frees it
	got := float64(retained) / float64(entities)
	t.Logf("router retains %.1f B per snapshot entity", got)
	if got > 110 {
		t.Fatalf("router retains %.1f B per snapshot entity, want at most 110", got)
	}
}
