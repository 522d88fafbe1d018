package shard

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
)

// TestChurnSoak churns 4,000 of the sf-32 likes and friendships (2,000 of
// each, drawn by a seeded shuffle) through Start and CommitRefs for
// 16,000 change sets, on one shard as a server runs them: set 2g removes
// group g's 4 likes and 4 friendships, set 2g+1 adds them back, so every
// 1,000 sets the State is the snapshot's again. The audit runs back to
// back beside the commits (the hook switches its rest off), offered every
// commit as a server offers it. Every 2,000 sets, with the auditor idle,
// the test reads the heap after two collections and the engines' nnz:
//
//   - nnz equals the snapshot's at every checkpoint, in every engine;
//   - the heap plateaus: past the first checkpoint no checkpoint retains
//     more than churnPlateau bytes per entity above the first. Until the
//     first, q2cc's search scratch and the label arrays of comments whose
//     components split grow to what the churn needs (about 60 KB, by a
//     heap profile of the first 2,000 sets);
//   - the audits (dozens: one takes longer than hundreds of commits) find
//     no disagreement.
func TestChurnSoak(t *testing.T) {
	const (
		churned  = 2000 // likes, and as many friendships
		group    = 4    // likes, and as many friendships, per set
		sets     = 16000
		every    = 2000 // sets between checkpoints: whole cycles
		warmedUp = 1    // checkpoints before the plateau's baseline
	)
	snap, _ := sf32Fixture()
	rng := rand.New(rand.NewSource(1))
	likes, friends := slicesOf(rng, snap.Likes, churned), slicesOf(rng, snap.Friendships, churned)
	var remove, add []model.ChangeSet
	for g := 0; g < churned/group; g++ {
		var r, a model.ChangeSet
		for _, l := range likes[g*group : (g+1)*group] {
			r.Changes = append(r.Changes, model.Change{Kind: model.KindRemoveLike, Like: l})
			a.Changes = append(a.Changes, model.Change{Kind: model.KindAddLike, Like: l})
		}
		for _, f := range friends[g*group : (g+1)*group] {
			r.Changes = append(r.Changes, model.Change{Kind: model.KindRemoveFriendship, Friendship: f})
			a.Changes = append(a.Changes, model.Change{Kind: model.KindAddFriendship, Friendship: f})
		}
		remove, add = append(remove, r), append(add, a)
	}

	st, err := model.NewState(snap)
	if err != nil {
		t.Fatal(err)
	}
	view, release := st.View()
	entities := 0
	for f := model.KeyKind(0); f < model.Families; f++ {
		entities += view.Len(f)
	}
	release()
	rt, err := Start(1, st, 0, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	nnz := func(rec *Record) []int {
		var n []int
		for _, e := range rec.Engines {
			n = append(n, e.NNZ)
		}
		return n
	}
	want := nnz(rt.Record())
	awaitIdle(t, rt)
	start := float64(heapAfterGC()) / float64(entities)
	var heaps []float64
	for k := 0; k < sets; k++ {
		cs := &remove[(k/2)%len(remove)]
		if k%2 == 1 {
			cs = &add[(k/2)%len(add)]
		}
		refs, err := st.Apply(cs.Changes)
		if err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
		rec, err := rt.CommitRefs(refs)
		if err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
		rt.Audit()
		if (k+1)%every != 0 {
			continue
		}
		if got := nnz(rec); !equalInts(got, want) {
			t.Fatalf("after %d sets: engine nnz %v, snapshot's %v", k+1, got, want)
		}
		awaitIdle(t, rt)
		heaps = append(heaps, float64(heapAfterGC())/float64(entities))
	}
	a := rt.Audited()
	t.Logf("%d entities; heap per entity before the churn %.2f, at each checkpoint %.2f; %d audits", entities, start, heaps, a.Audits)
	if a.Err != nil || a.Q1Disagreements+a.Q2Disagreements != 0 {
		t.Fatalf("audits: %+v", *a)
	}
	if a.Audits < len(heaps) {
		t.Fatalf("%d audits ran beside %d commits, want at least one per checkpoint", a.Audits, sets)
	}
	for k, h := range heaps[warmedUp:] {
		if h > heaps[warmedUp-1]+churnPlateau {
			t.Errorf("checkpoint %d retains %.1f B per entity, more than %.1f above the first's %.1f",
				warmedUp+k, h, churnPlateau, heaps[warmedUp-1])
		}
	}
}

// churnPlateau bounds, in bytes per entity, how far TestChurnSoak's heap
// may rise past its first checkpoint. Over 6 runs, and 3 under -race, Go
// 1.24 measured rises of 0.04–0.18 (0.14–0.17 under -race), in steps of
// a scratch slice's growth, not per set; the heap rose about 1.0 before
// the first checkpoint. The bound is about twice the largest rise. A
// leak of 4 bytes per removed edge would add 3.5 B per entity over the
// 14,000 sets past the first checkpoint (56,000 removals, 64,758
// entities).
const churnPlateau = 0.4

// slicesOf returns n of xs, drawn by a shuffle of a copy.
func slicesOf[T any](rng *rand.Rand, xs []T, n int) []T {
	c := append([]T(nil), xs...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c[:n]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// awaitIdle waits until the auditor has finished the audit it holds, if
// any; with no offer after it, it then stays idle.
func awaitIdle(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !rt.aud.idle.Load() {
		if time.Now().After(deadline) {
			t.Fatal("auditor still busy after 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
