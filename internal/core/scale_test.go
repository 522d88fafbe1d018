package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
)

// scaleStream is the change stream every scaling measurement replays: the
// datagen seed-7 graph at scale factor sf with 2000 change sets, each
// change a removal with probability removal.
func scaleStream(sf int, removal float64) datagen.Config {
	return datagen.Config{ScaleFactor: sf, Seed: 7, ChangeSets: 2000, RemovalFraction: removal}
}

// updateBytesPerChange loads an engine on a generated dataset, evaluates
// it once, and reports the bytes its Update calls allocate per change over
// the whole change stream (runtime.MemStats.TotalAlloc, so the figure does
// not depend on host speed).
func updateBytesPerChange(t *testing.T, eng Engine, cfg datagen.Config) float64 {
	t.Helper()
	bytes, changes := updateAlloc(t, eng, cfg)
	return float64(bytes) / float64(changes)
}

// updateAlloc loads an engine on a generated dataset, evaluates it once,
// and returns the bytes its Update calls allocate over the whole change
// stream and the number of changes in it.
func updateAlloc(t *testing.T, eng Engine, cfg datagen.Config) (bytes uint64, changes int) {
	t.Helper()
	run := runUpdates(t, eng, datagen.Generate(cfg), false)
	return run.bytes, run.changes
}

// updateRun is what one engine's Update calls cost over a change stream.
type updateRun struct {
	changes   int
	bytes     uint64        // allocated by all Update calls together
	elapsed   time.Duration // spent inside Update calls
	slowest   time.Duration // the longest single Update call
	perUpdate []uint64      // bytes each Update call allocated, if asked for
}

// runUpdates loads eng on ds the way the sharded runtime does, from a
// model.State it does not count, evaluates it once, then feeds it every
// change set of ds, resolved by the State beforehand. With perUpdate it
// also reads the allocation counter around each Update call, outside the
// timed span.
func runUpdates(tb testing.TB, eng Engine, ds *model.Dataset, perUpdate bool) updateRun {
	tb.Helper()
	st, err := model.NewState(ds.Snapshot)
	if err != nil {
		tb.Fatal(err)
	}
	attach(tb, eng, st)
	if _, err := eng.Initial(); err != nil {
		tb.Fatal(err)
	}
	var run updateRun
	sets := make([][]model.Ref, len(ds.ChangeSets))
	for i := range ds.ChangeSets {
		run.changes += len(ds.ChangeSets[i].Changes)
		refs, err := st.Apply(ds.ChangeSets[i].Changes)
		if err != nil {
			tb.Fatal(err)
		}
		sets[i] = slices.Clone(refs)
	}
	var before, after, mid runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	last := before.TotalAlloc
	for i := range sets {
		start := time.Now()
		if _, err := eng.UpdateRefs(sets[i]); err != nil {
			tb.Fatal(err)
		}
		took := time.Since(start)
		run.elapsed += took
		run.slowest = max(run.slowest, took)
		if perUpdate {
			runtime.ReadMemStats(&mid)
			run.perUpdate = append(run.perUpdate, mid.TotalAlloc-last)
			last = mid.TotalAlloc
		}
	}
	runtime.ReadMemStats(&after)
	run.bytes = after.TotalAlloc - before.TotalAlloc
	return run
}

// BenchmarkUpdateScaling is the engine rung of the paper's claim that
// incremental maintenance pays for the change, not the graph: each served
// engine replays scaleStream, insert-only and with 35% removals, at scale
// factors 8, 32 and 128 (the stream TestUpdateCostScaleInvariant gates),
// and reports the time and bytes its Update calls take per change, the
// 99th percentile of the bytes one Update call allocates and the slowest
// call. ns/op counts loading the engine too; the per-change figures do not.
func BenchmarkUpdateScaling(b *testing.B) {
	for _, e := range []struct {
		name string
		new  func() Engine
	}{
		{"q1", func() Engine { return NewQ1Incremental() }},
		{"q2", func() Engine { return NewQ2Incremental() }},
		{"q2cc", func() Engine { return NewQ2IncrementalCC() }},
	} {
		for _, removal := range []float64{0, 0.35} {
			for _, sf := range []int{8, 32, 128} {
				b.Run(fmt.Sprintf("%s/rf%.0f/sf%d", e.name, removal*100, sf), func(b *testing.B) {
					ds := datagen.Generate(scaleStream(sf, removal))
					var total updateRun
					for i := 0; i < b.N; i++ {
						run := runUpdates(b, e.new(), ds, true)
						total.changes += run.changes
						total.bytes += run.bytes
						total.elapsed += run.elapsed
						total.slowest = max(total.slowest, run.slowest)
						total.perUpdate = append(total.perUpdate, run.perUpdate...)
					}
					slices.Sort(total.perUpdate)
					n := float64(total.changes)
					b.ReportMetric(float64(total.elapsed.Nanoseconds())/n, "ns/change")
					b.ReportMetric(float64(total.bytes)/n, "B/change")
					b.ReportMetric(float64(total.perUpdate[len(total.perUpdate)*99/100]), "p99-B/update")
					b.ReportMetric(float64(total.slowest.Nanoseconds()), "max-ns/update")
				})
			}
		}
	}
}

// TestUpdateCostScaleInvariant holds the served engines to the paper's
// claim that incremental maintenance pays for the change, not the graph:
// on the same seed and change-stream shape, the bytes an engine's Update
// allocates per change at scale factor 128 (a graph 16× larger) may be at
// most twice those at scale factor 8. Every served engine has a row for
// the insert-only stream and one for 35% removals; each row landed with
// the change that made it pass and is never loosened. 2000 change sets
// keep one-off slice growth from skewing the ratio.
func TestUpdateCostScaleInvariant(t *testing.T) {
	rows := []struct {
		name    string
		new     func() Engine
		removal float64
	}{
		{"q1/rf0", func() Engine { return NewQ1Incremental() }, 0},
		{"q1/rf35", func() Engine { return NewQ1Incremental() }, 0.35},
		{"q2cc/rf0", func() Engine { return NewQ2IncrementalCC() }, 0},
		{"q2cc/rf35", func() Engine { return NewQ2IncrementalCC() }, 0.35},
		{"q2/rf0", func() Engine { return NewQ2Incremental() }, 0},
		{"q2/rf35", func() Engine { return NewQ2Incremental() }, 0.35},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			small := updateBytesPerChange(t, row.new(), scaleStream(8, row.removal))
			large := updateBytesPerChange(t, row.new(), scaleStream(128, row.removal))
			t.Logf("bytes allocated per change: sf 8 %.0f, sf 128 %.0f (×%.2f)", small, large, large/small)
			if large > 2*small {
				t.Fatalf("Update allocates %.0f B/change at sf 128 vs %.0f at sf 8 (×%.2f > ×2): cost grows with the graph",
					large, small, large/small)
			}
		})
	}
}

// TestQ2CostPerSubgraphEntry gates Q2Incremental on the paper's own cost
// model: Update re-scores each affected comment by extracting the
// friendship subgraph its likers induce and running FastSV on it, so its
// cost is the entries of those subgraphs, and Zipf-popular comments gain
// likers as the graph grows. Besides TestUpdateCostScaleInvariant's bytes
// per change, the bytes Update allocates per subgraph entry must be flat:
// at scale factor 128 at most twice those at scale factor 8, on the same
// stream.
func TestQ2CostPerSubgraphEntry(t *testing.T) {
	for _, removal := range []float64{0, 0.35} {
		t.Run(fmt.Sprintf("rf%.0f", removal*100), func(t *testing.T) {
			perEntry := func(sf int) (float64, int64) {
				eng := NewQ2Incremental()
				bytes, _ := updateAlloc(t, eng, scaleStream(sf, removal))
				if eng.subgraphEntries == 0 {
					t.Fatalf("sf %d: Update extracted no subgraph entries", sf)
				}
				return float64(bytes) / float64(eng.subgraphEntries), eng.subgraphEntries
			}
			small, smallN := perEntry(8)
			large, largeN := perEntry(128)
			t.Logf("bytes allocated per subgraph entry: sf 8 %.1f (%d entries), sf 128 %.1f (%d entries) (×%.2f)",
				small, smallN, large, largeN, large/small)
			if large > 2*small {
				t.Fatalf("Update allocates %.1f B per subgraph entry at sf 128 vs %.1f at sf 8 (×%.2f > ×2)",
					large, small, large/small)
			}
		})
	}
}
