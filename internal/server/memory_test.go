package server

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// heapLiveAndGoal reads the heap the last collection marked live and the
// pacer's heap goal for the next one.
func heapLiveAndGoal() (live, goal uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// TestStartupEndsOnTheServedHeap pins start-up's one collection, which
// shard.Start runs before it starts the auditor, whose first audit ends
// after New has returned. Under GOGC=100 the pacer sets the next heap
// goal to about twice the heap its last collection marked, so the first
// goal a server runs under must come from the served state, not from
// start-up's transients: the parsed dataset and the tuple lists that
// built the engines. Once the first audit has checked the base state of an sf-32
// dataset directory, the goal may be at most 2.25× the live heap a
// collection then finds. Without that collection the goal comes from a cycle that
// ran while the engines were loading.
func TestStartupEndsOnTheServedHeap(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	dir := t.TempDir()
	d := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1})
	if err := model.WriteDataset(dir, &model.Dataset{Snapshot: d.Snapshot}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()

	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitAudited(t, srv, 0)
	_, goal := heapLiveAndGoal()
	runtime.GC()
	live, _ := heapLiveAndGoal()
	ratio := float64(goal) / float64(live)
	t.Logf("after start-up: heap goal %.1f MiB, served heap %.1f MiB (%.2f×)", mib(goal), mib(live), ratio)
	if ratio > 2.25 {
		t.Fatalf("heap goal after start-up is %.2f× the served heap (%.1f / %.1f MiB), want at most 2.25×", ratio, mib(goal), mib(live))
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
