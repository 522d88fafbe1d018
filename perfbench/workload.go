package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/server"
)

// workload is one traffic mix against one generated dataset.
type workload struct {
	name string
	// sf, removalFraction parameterize internal/datagen; the seed comes
	// from the command line.
	sf              int
	removalFraction float64
	// shards and durable configure ttcserve (-shards, -data-dir with the
	// default fsync=always and snapshot cadence).
	shards  int
	durable bool
	// ingest posts the stream closed-loop with wait=false (the last change
	// set with wait=true), so the batcher always finds a full queue.
	// Otherwise updates are wait=true, open-loop at updateRate change sets
	// per second.
	ingest     bool
	updateRate float64
	// setsPerSecond sizes an ingest prefix: the stream is a fixed number
	// of change sets, chosen so one run lasts about --seconds at the
	// throughput the server sustains.
	setsPerSecond float64
	// readRate is the open-loop read rate in reads per second; 0 runs one
	// closed-loop reader instead.
	readRate float64
}

// workloads are the benchmark's traffic mixes; see BENCHMARK.json for why
// each exists.
var workloads = []workload{
	{name: "ingest-sf128", sf: 128, shards: 1, ingest: true, setsPerSecond: 450, readRate: 200},
	{name: "serve-sf32", sf: 32, shards: 1, updateRate: 60},
	// churn reads closed-loop too: on a 2-vCPU virtual machine, open-loop
	// reads at 100-500/s left the CPUs idle between requests, and their
	// latency then tracked vCPU wake-up (run-to-run spread 0.15-0.25).
	{name: "churn-durable-sf32", sf: 32, removalFraction: 0.35, shards: 2, durable: true, updateRate: 60},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// maxBatch is ttcserve's default -batch: the batcher closes a commit once
// it holds this many changes.
const maxBatch = 64

// prefixSets is the number of change sets one run replays.
func (w workload) prefixSets(seconds int) int {
	rate := w.updateRate
	if w.ingest {
		rate = w.setsPerSecond
	}
	return int(rate * float64(seconds))
}

// commitMin is the smallest commit the server makes from this workload's
// stream: a full batch when the queue is always full (ingest), else every
// waited change set commits alone.
func (w workload) commitMin() int {
	if w.ingest {
		return maxBatch
	}
	return 1
}

// inputs is everything a run derives from the seed.
type inputs struct {
	initial *model.Snapshot
	sets    []model.ChangeSet
	changes int // total changes in sets
}

func generate(w workload, seed int64, seconds int) *inputs {
	n := w.prefixSets(seconds)
	d := datagen.Generate(datagen.Config{
		ScaleFactor:     w.sf,
		Seed:            seed,
		RemovalFraction: w.removalFraction,
		ChangeSets:      n,
	})
	in := &inputs{initial: d.Snapshot, sets: d.ChangeSets}
	for i := range in.sets {
		in.changes += len(in.sets[i].Changes)
	}
	return in
}

// groupCommits merges consecutive change sets until a group holds at least
// min changes — the batcher's rule when its queue is never empty: a
// request is never split, and a batch closes as soon as it reaches
// MaxBatch changes. Each group is normalized as the server normalizes a
// batch before the WAL and the engines see it.
func groupCommits(sets []model.ChangeSet, min int) []model.ChangeSet {
	var out []model.ChangeSet
	var cur model.ChangeSet
	for i := range sets {
		cur.Changes = append(cur.Changes, sets[i].Changes...)
		if len(cur.Changes) >= min {
			cur.Normalize()
			out = append(out, cur)
			cur = model.ChangeSet{}
		}
	}
	if len(cur.Changes) > 0 {
		cur.Normalize()
		out = append(out, cur)
	}
	return out
}

// updateBodies encodes each change set as one /update request body.
func updateBodies(w workload, sets []model.ChangeSet) ([][]byte, error) {
	bodies := make([][]byte, len(sets))
	for i := range sets {
		wire := make([]any, len(sets[i].Changes))
		for j, ch := range sets[i].Changes {
			wire[j] = server.WireChange(ch)
		}
		wait := !w.ingest || i == len(sets)-1
		b, err := json.Marshal(map[string]any{"changes": wire, "wait": wait})
		if err != nil {
			return nil, fmt.Errorf("encode change set %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// reference is the expected served state after the whole prefix commits:
// the initial snapshot with every change set applied, evaluated from
// scratch by the batch engines.
type reference struct {
	changes int
	q1, q2  string
}

func buildReference(in *inputs) (*reference, error) {
	final := in.initial.Clone()
	for i := range in.sets {
		final.Apply(&in.sets[i])
	}
	ref := &reference{changes: in.changes}
	for _, e := range []struct {
		sol core.Solution
		out *string
	}{{core.NewQ1Batch(), &ref.q1}, {core.NewQ2Batch(), &ref.q2}} {
		if err := e.sol.Load(final); err != nil {
			return nil, fmt.Errorf("reference %s: %w", e.sol.Query(), err)
		}
		res, err := e.sol.Initial()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", e.sol.Query(), err)
		}
		*e.out = res.String()
	}
	return ref, nil
}

// served is what the server reports once the stream has drained.
type served struct {
	results         map[string]string // engine key → "id|id|id"
	changes         map[string]int    // engine key → committed changes the answer reflects
	q2Disagreements int
}

// check is the run's correctness gate: every query answer reflects the
// whole stream and equals the reference, and the server's two Q2 engines
// never disagreed.
func check(s served, ref *reference) error {
	want := map[string]string{
		server.EngineQ1:   ref.q1,
		server.EngineQ2:   ref.q2,
		server.EngineQ2CC: ref.q2,
	}
	for _, key := range []string{server.EngineQ1, server.EngineQ2, server.EngineQ2CC} {
		if got := s.changes[key]; got != ref.changes {
			return fmt.Errorf("%s reflects %d committed changes, sent %d", key, got, ref.changes)
		}
		if got := s.results[key]; got != want[key] {
			return fmt.Errorf("%s answer %q, reference %q", key, got, want[key])
		}
	}
	if s.q2Disagreements != 0 {
		return fmt.Errorf("/stats reports %d Q2 engine disagreements", s.q2Disagreements)
	}
	return nil
}
