package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// BenchmarkWarmup measures the start-up cost of each served engine: Load
// plus Initial on a datagen seed-1 snapshot, the work a shard does before
// it can answer its first query, at scale factors 32 and 128; 128 is the
// scale of perfbench's ingest-sf128, whose setup_s these loads are part of.
func BenchmarkWarmup(b *testing.B) {
	for _, e := range []struct {
		name string
		new  func() Solution
	}{
		{"q1", func() Solution { return NewQ1Incremental() }},
		{"q2", func() Solution { return NewQ2Incremental() }},
		{"q2cc", func() Solution { return NewQ2IncrementalCC() }},
	} {
		for _, sf := range []int{32, 128} {
			b.Run(fmt.Sprintf("%s/sf%d", e.name, sf), func(b *testing.B) {
				snap := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1}).Snapshot
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng := e.new()
					if err := eng.Load(snap); err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Initial(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ2Score times Q2's per-comment scoring kernel — liker row,
// induced-subgraph extraction, FastSV, Σ size² — on one worker over every
// comment of the datagen sf-128, seed-1 snapshot, and reports the time and
// the bytes allocated per comment. One untimed pass first grows the
// worker's buffers, so the figures are the steady state a commit sees.
func BenchmarkQ2Score(b *testing.B) {
	st, err := model.NewState(datagen.Generate(datagen.Config{ScaleFactor: 128, Seed: 1}).Snapshot)
	if err != nil {
		b.Fatal(err)
	}
	g, err := loadGraph(Part{Nodes: st}, stateRefs(st), withLikes|withFriends)
	if err != nil {
		b.Fatal(err)
	}
	comments := denseKeys(g.nc)
	scores := make([]int64, len(comments))
	scorers := make([]q2Scorer, 1)
	if _, err := q2ScoreAll(g.likes, g.friends, comments, scores, scorers); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q2ScoreAll(g.likes, g.friends, comments, scores, scorers); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(comments))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/comment")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/comment")
}
