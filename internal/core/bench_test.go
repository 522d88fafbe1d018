package core

import (
	"testing"

	"repro/internal/datagen"
)

// BenchmarkWarmup measures the start-up cost of each served engine: Load
// plus Initial on a scale-factor-32 snapshot, the work a shard does before
// it can answer its first query.
func BenchmarkWarmup(b *testing.B) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 32, Seed: 1}).Snapshot
	for _, e := range []struct {
		name string
		new  func() Solution
	}{
		{"q1", func() Solution { return NewQ1Incremental() }},
		{"q2", func() Solution { return NewQ2Incremental() }},
		{"q2cc", func() Solution { return NewQ2IncrementalCC() }},
	} {
		b.Run(e.name, func(b *testing.B) {
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
