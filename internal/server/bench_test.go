package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/wal"
)

// BenchmarkReadMergeCached measures the read hot path with and without the
// per-snapshot epoch cache: between commits every /query answer is
// identical, so the cached path serves the previously marshaled bytes
// (zero encodes, zero allocations) while the uncached path re-marshals the
// response per request — the allocation profile every read paid before
// this PR. Emitted into BENCH_PR.json by the bench CI job.
func BenchmarkReadMergeCached(b *testing.B) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	srv, err := New(Config{Dataset: d, FlushInterval: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	b.Run("Cached", func(b *testing.B) {
		snap := srv.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if body := snap.queryBody(0, "Q1", EngineQ1); len(body) == 0 {
				b.Fatal("empty body")
			}
		}
	})
	b.Run("Uncached", func(b *testing.B) {
		snap := srv.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(queryResponse{
				Query:   "Q1",
				Engine:  EngineQ1,
				Result:  snap.Results[EngineQ1],
				Seq:     snap.Seq,
				Changes: snap.Changes,
				AsOf:    snap.At,
			})
			if err != nil || len(body) == 0 {
				b.Fatal("marshal failed")
			}
		}
	})
}

// BenchmarkStartup measures time to ready in-process: New on a dataset
// directory, which reads it with model.ReadDataset, validates it and warms
// the served engines. The directory holds the datagen seed-1 snapshot at
// scale factor 32 or 128 without change sets, as perfbench writes it; this
// is the rung under perfbench's setup_s, which adds process start and the
// first /healthz. BenchmarkWarmup in internal/core times the engines alone.
// read-ms, state-ms, load-ms and initial-ms are New's steps as /stats
// reports them (readMs, stateMs, loadMs, initialMs): the dataset read, its
// validation by model.NewState, the slowest served engine's load (q2cc's
// includes its wait for the router, which shard.Start builds while q1
// loads) and the slowest initial evaluation. Each engine evaluates as
// soon as it has loaded, so load-ms + initial-ms can exceed the engines'
// share of ns/op; shard.Start's refs and closing collection make up most
// of the rest. audited-ms is the time from the start of New until the
// first audit, which checks the base state after New returns, has
// published: the end of start-up's background work, read by polling every
// 50µs. It also reports, as live-MiB and goal-MiB, the heap live at the
// last collection once that audit has run (usually start-up's one, at
// the end of shard.Start) and the heap goal the server then serves under:
// the start-up rung of a peak-memory ladder below perfbench's
// server_rss_mb.
func BenchmarkStartup(b *testing.B) {
	for _, sf := range []int{32, 128} {
		b.Run(fmt.Sprintf("sf%d", sf), func(b *testing.B) {
			dir := b.TempDir()
			d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
			if err := model.WriteDataset(dir, &model.Dataset{Snapshot: d.Snapshot}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var live, goal uint64
			var audited time.Duration
			var steps [4]durationMS // read, state, load, initial
			for i := 0; i < b.N; i++ {
				start := time.Now()
				srv, err := New(Config{DataDir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for srv.rt.Audited().Audits == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				audited += time.Since(start)
				l, g := heapLiveAndGoal()
				live, goal = live+l, goal+g
				srv.mu.Lock()
				c := srv.stats
				srv.mu.Unlock()
				for k, d := range []durationMS{c.Read, c.State, c.Load, c.Initial} {
					steps[k] += d
				}
				srv.Close()
				b.StartTimer()
			}
			for k, unit := range []string{"read-ms", "state-ms", "load-ms", "initial-ms"} {
				b.ReportMetric(time.Duration(steps[k]).Seconds()*1e3/float64(b.N), unit)
			}
			b.ReportMetric(audited.Seconds()*1e3/float64(b.N), "audited-ms")
			b.ReportMetric(mib(live)/float64(b.N), "live-MiB")
			b.ReportMetric(mib(goal)/float64(b.N), "goal-MiB")
		})
	}
}

// serverCommitSets is how many change sets BenchmarkServerCommit replays.
const serverCommitSets = 2000

// BenchmarkServerCommit is the server.commit rung: one waited in-process
// Enqueue per change set of a fixed stream, the first serverCommitSets
// (2,000) change sets of the datagen seed-1 stream with 35% removals at
// sf 32 and at sf 128, each committing alone, at 1 and 2 shards, without a
// WAL and with one fsynced on every append. When b.N runs past the stream,
// the server restarts from the same dataset, with a fresh WAL directory,
// off the clock, so every -benchtime measures the same commits. ns/commit
// is the time from Enqueue to its return: validation, the WAL append
// beside the engines' apply, publication and the offer to the audit.
// Each server's audits run beside the commits, its first on the base
// state right after start-up; audits/op counts them per commit, so a
// reader sees they ran. Periodic snapshots run at the default cadence, as
// in ttcserve. The rung below is shard.Commit; perfbench's
// churn-durable-sf32 adds HTTP and concurrent readers on top of the
// durable 2-shard sf-32 case.
func BenchmarkServerCommit(b *testing.B) {
	for _, sf := range []int{32, 128} {
		d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1, RemovalFraction: 0.35, ChangeSets: serverCommitSets})
		for _, shards := range []int{1, 2} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("sf%d/shards%d/nowal", sf, shards)
				if durable {
					name = fmt.Sprintf("sf%d/shards%d/fsync-always", sf, shards)
				}
				b.Run(name, func(b *testing.B) {
					var srv *Server
					audits := 0
					stop := func() {
						srv.Close()
						audits += srv.rt.Audited().Audits
					}
					start := func() {
						cfg := Config{Dataset: d, Shards: shards}
						if durable {
							cfg.PersistDir = b.TempDir()
							cfg.Fsync = wal.SyncAlways
						}
						var err error
						if srv, err = New(cfg); err != nil {
							b.Fatal(err)
						}
					}
					start()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						k := i % len(d.ChangeSets)
						if k == 0 && i > 0 {
							b.StopTimer()
							stop()
							start()
							b.StartTimer()
						}
						if err := srv.Enqueue(d.ChangeSets[k].Changes, true); err != nil {
							b.Fatalf("change set %d: %v", k, err)
						}
					}
					b.StopTimer()
					stop()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/commit")
					b.ReportMetric(float64(audits)/float64(b.N), "audits/op")
				})
			}
		}
	}
}
