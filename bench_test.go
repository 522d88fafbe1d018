package repro

// The benchmark suite regenerates every evaluation artifact of the paper:
//
//	BenchmarkTableII           — graph sizes per scale factor (Table II)
//	BenchmarkFig5/...          — execution times per query × phase × tool ×
//	                             scale factor (Fig. 5); tools: GraphBLAS
//	                             Batch/Incremental at 1 and 8 threads, NMF
//	                             Batch/Incremental
//	BenchmarkAblation...       — design-choice ablations (see README.md)
//
// The sub-benchmark sweep uses scale factors 1..16 so a plain
// `go test -bench=.` finishes in minutes; cmd/ttcbench runs the full sweep
// to 1024. ns/op of a Fig5 benchmark is the phase time the paper plots.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/harness"
	"repro/internal/lagraph"
	"repro/internal/model"
)

var benchScaleFactors = []int{1, 2, 4, 8, 16}

// datasetCache avoids regenerating identical datasets across benchmarks.
// The mutex makes benchDataset safe under `go test -bench -cpu` sweeps and
// parallel sub-benchmarks, where multiple goroutines can reach the cache
// at once.
var (
	datasetMu    sync.Mutex
	datasetCache = map[int]*model.Dataset{}
)

func benchDataset(sf int) *model.Dataset {
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if d, ok := datasetCache[sf]; ok {
		return d
	}
	d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 2018})
	datasetCache[sf] = d
	return d
}

// BenchmarkTableII regenerates Table II: per scale factor it generates the
// dataset and reports node/edge/insert counts as benchmark metrics.
func BenchmarkTableII(b *testing.B) {
	for _, sf := range benchScaleFactors {
		b.Run(fmt.Sprintf("sf%d", sf), func(b *testing.B) {
			var d *model.Dataset
			for i := 0; i < b.N; i++ {
				d = datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 2018})
			}
			b.ReportMetric(float64(d.Snapshot.NodeCount()), "nodes")
			b.ReportMetric(float64(d.Snapshot.EdgeCount()), "edges")
			b.ReportMetric(float64(d.TotalInserts()), "inserts")
		})
	}
}

// benchFig5 runs one Fig. 5 cell: tool × query × scale factor, one
// sub-benchmark per phase. "Initial" times Load + initial evaluation;
// "Update" times the full update + reevaluation sequence (load and initial
// run untimed per iteration, since engines are stateful).
func benchFig5(b *testing.B, query string) {
	for _, tool := range harness.Tools(query, 8) {
		b.Run(tool.Label, func(b *testing.B) {
			for _, sf := range benchScaleFactors {
				d := benchDataset(sf)
				b.Run(fmt.Sprintf("Initial/sf%d", sf), func(b *testing.B) {
					prev := grb.SetThreads(tool.Threads)
					defer grb.SetThreads(prev)
					for i := 0; i < b.N; i++ {
						sol := tool.New()
						if err := sol.Load(d.Snapshot); err != nil {
							b.Fatal(err)
						}
						if _, err := sol.Initial(); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("Update/sf%d", sf), func(b *testing.B) {
					prev := grb.SetThreads(tool.Threads)
					defer grb.SetThreads(prev)
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sol := tool.New()
						if err := sol.Load(d.Snapshot); err != nil {
							b.Fatal(err)
						}
						if _, err := sol.Initial(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						for k := range d.ChangeSets {
							if _, err := sol.Update(&d.ChangeSets[k]); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		})
	}
}

// BenchmarkFig5Q1 reproduces the Q1 column of Fig. 5.
func BenchmarkFig5Q1(b *testing.B) { benchFig5(b, "Q1") }

// BenchmarkFig5Q2 reproduces the Q2 column of Fig. 5.
func BenchmarkFig5Q2(b *testing.B) { benchFig5(b, "Q2") }

// BenchmarkAblationCC compares the three connected-component algorithms on
// random symmetric graphs — FastSV (the paper's choice via LAGraph), the
// label-propagation baseline, and plain union-find.
func BenchmarkAblationCC(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		rng := rand.New(rand.NewSource(3))
		a := grb.NewMatrix[bool](n, n)
		for k := 0; k < 4*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			_ = a.SetElement(i, j, true)
			_ = a.SetElement(j, i, true)
		}
		a.Wait()
		b.Run(fmt.Sprintf("FastSV/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lagraph.FastSV(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("LabelProp/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lagraph.CCLabelProp(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("UnionFind/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lagraph.CCUnionFind(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQ2Update compares the three incremental Q2 strategies on
// the update phase (paper future-work item 2): re-scoring affected comments
// with FastSV (row-merge and incidence-matrix affected-set detection) versus
// fully incremental connected components via per-comment union-find.
func BenchmarkAblationQ2Update(b *testing.B) {
	variants := []struct {
		name string
		mk   func() core.Solution
	}{
		{"RecomputeAffected", func() core.Solution { return core.NewQ2Incremental() }},
		{"RecomputeAffectedIncidence", func() core.Solution { return core.NewQ2IncrementalIncidence() }},
		{"IncrementalCC", func() core.Solution { return core.NewQ2IncrementalCC() }},
	}
	for _, sf := range []int{1, 4, 16} {
		d := benchDataset(sf)
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/sf%d", v.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sol := v.mk()
					if err := sol.Load(d.Snapshot); err != nil {
						b.Fatal(err)
					}
					if _, err := sol.Initial(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for k := range d.ChangeSets {
						if _, err := sol.Update(&d.ChangeSets[k]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkMixedWorkload measures the update phase under the paper's
// future-work workload of mixed insertions and removals (35% removals).
// Incremental engines lose their merge-based ranking shortcut on removal
// steps (scores stop being monotone) but keep incremental score
// maintenance, so they still dominate the batch engines.
func BenchmarkMixedWorkload(b *testing.B) {
	for _, sf := range []int{1, 4, 16} {
		d := datagen.Generate(datagen.Config{
			ScaleFactor:     sf,
			Seed:            2018,
			RemovalFraction: 0.35,
		})
		tools := []struct {
			name string
			mk   harness.Factory
		}{
			{"Q1Batch", func() core.Solution { return core.NewQ1Batch() }},
			{"Q1Incremental", func() core.Solution { return core.NewQ1Incremental() }},
			{"Q2Batch", func() core.Solution { return core.NewQ2Batch() }},
			{"Q2Incremental", func() core.Solution { return core.NewQ2Incremental() }},
			{"Q2IncrementalCC", func() core.Solution { return core.NewQ2IncrementalCC() }},
		}
		for _, tool := range tools {
			b.Run(fmt.Sprintf("%s/sf%d", tool.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sol := tool.mk()
					if err := sol.Load(d.Snapshot); err != nil {
						b.Fatal(err)
					}
					if _, err := sol.Initial(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for k := range d.ChangeSets {
						if _, err := sol.Update(&d.ChangeSets[k]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// byEntry ranks heap slots that hold their entries, as the engines' do.
type byEntry struct{}

func (byEntry) Less(a, b core.Slot[core.Entry]) bool     { return core.Less(a.Val, b.Val) }
func (byEntry) Entry(s core.Slot[core.Entry]) core.Entry { return s.Val }

// BenchmarkAblationTopKIndex quantifies the incremental engines' top-3
// maintenance (a core.RankHeap of entries over every entity, re-ranking
// only the entries whose score changed) against a full rescan of the score
// vector. Each step changes the same 10 entries' scores, up or down.
func BenchmarkAblationTopKIndex(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		scores := make([]int64, n)
		rng := rand.New(rand.NewSource(4))
		for i := range scores {
			scores[i] = int64(rng.Intn(1000))
		}
		b.Run(fmt.Sprintf("FullScan/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := core.NewTopK(core.TopK)
				for idx, s := range scores {
					t.Consider(core.Entry{ID: model.ID(idx), Score: s, Timestamp: int64(idx)})
				}
				_ = t.Result()
			}
		})
		b.Run(fmt.Sprintf("RankHeap/n%d", n), func(b *testing.B) {
			var x core.RankHeap[core.Entry, byEntry]
			for idx, s := range scores {
				x.Set(core.Slot[core.Entry]{Val: core.Entry{ID: model.ID(idx), Score: s, Timestamp: int64(idx)}, Key: int32(idx)})
			}
			changed := make([]int, 10)
			for i := range changed {
				changed[i] = rng.Intn(n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, idx := range changed {
					score := int64((i*31 + k*97) % 1000)
					x.Set(core.Slot[core.Entry]{Val: core.Entry{ID: model.ID(idx), Score: score, Timestamp: int64(idx)}, Key: int32(idx)})
				}
				_ = x.Top(core.TopK)
			}
		})
	}
}
