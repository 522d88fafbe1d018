package core

import (
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
	ds := datagen.Generate(cfg)
	if err := eng.Load(ds.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	changes := 0
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
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(changes)
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
