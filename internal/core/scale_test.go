package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// updateBytesPerChange loads an engine on a generated dataset, evaluates
// it once, and reports the bytes its Update calls allocate per change over
// the whole change stream (runtime.MemStats.TotalAlloc, so the figure does
// not depend on host speed).
func updateBytesPerChange(t *testing.T, eng Solution, cfg datagen.Config) float64 {
	t.Helper()
	bytes, changes := updateAlloc(t, eng, cfg)
	return float64(bytes) / float64(changes)
}

// updateAlloc loads an engine on a generated dataset, evaluates it once,
// and returns the bytes its Update calls allocate over the whole change
// stream and the number of changes in it.
func updateAlloc(t *testing.T, eng Solution, cfg datagen.Config) (bytes uint64, changes int) {
	t.Helper()
	ds := datagen.Generate(cfg)
	if err := eng.Load(ds.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	for i := range ds.ChangeSets {
		changes += len(ds.ChangeSets[i].Changes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ds.ChangeSets {
		if _, err := eng.Update(&ds.ChangeSets[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, changes
}

// TestUpdateCostScaleInvariant holds the served engines to the paper's
// claim that incremental maintenance pays for the change, not the graph:
// on the same seed and change-stream shape, the bytes an engine's Update
// allocates per change at scale factor 128 (a graph 16× larger) may be at
// most twice those at scale factor 8. Each row lands with the change that
// makes it pass and is never loosened; the rows still missing are listed in
// README.md with the reason. 2000 change sets keep one-off slice growth
// from skewing the ratio.
func TestUpdateCostScaleInvariant(t *testing.T) {
	rows := []struct {
		name    string
		new     func() Solution
		removal float64
	}{
		{"q1/rf0", func() Solution { return NewQ1Incremental() }, 0},
		{"q1/rf35", func() Solution { return NewQ1Incremental() }, 0.35},
		{"q2cc/rf0", func() Solution { return NewQ2IncrementalCC() }, 0},
		{"q2/rf0", func() Solution { return NewQ2Incremental() }, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := datagen.Config{Seed: 7, ChangeSets: 2000, RemovalFraction: row.removal}
			cfg.ScaleFactor = 8
			small := updateBytesPerChange(t, row.new(), cfg)
			cfg.ScaleFactor = 128
			large := updateBytesPerChange(t, row.new(), cfg)
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
// likers as the graph grows. Bytes per change therefore cannot be flat
// (the README lists q2's rows as missing from
// TestUpdateCostScaleInvariant), but the bytes Update allocates per
// subgraph entry must be: at scale factor 128 at most twice those at
// scale factor 8, on the same stream as TestUpdateCostScaleInvariant.
func TestQ2CostPerSubgraphEntry(t *testing.T) {
	for _, removal := range []float64{0, 0.35} {
		t.Run(fmt.Sprintf("rf%.0f", removal*100), func(t *testing.T) {
			perEntry := func(sf int) (float64, int64) {
				eng := NewQ2Incremental()
				bytes, _ := updateAlloc(t, eng, datagen.Config{ScaleFactor: sf, Seed: 7, ChangeSets: 2000, RemovalFraction: removal})
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
