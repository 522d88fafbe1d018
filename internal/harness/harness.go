// Package harness reimplements the TTC 2018 benchmark framework used in the
// paper's evaluation (§IV): it drives a solution through the contest's
// phases — Load, Initial evaluation, then Update + Reevaluation per change
// set — measures each phase, repeats runs and reports geometric means, and
// renders the two artifacts of the paper's evaluation: Table II (graph
// sizes per scale factor) and the Fig. 5 series (execution time per tool,
// query, phase and scale factor).
package harness

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nmf"
)

// Factory constructs a fresh solution instance for one run.
type Factory func() core.Solution

// Tool is a named, thread-configured solution entry in the benchmark.
type Tool struct {
	// Label is the series name as it appears in Fig. 5, e.g.
	// "GraphBLAS Batch (8 threads)".
	Label string
	// Threads configures grb.SetThreads for the run; 0 leaves it alone
	// (the NMF reference solutions are single-threaded).
	Threads int
	// New creates the engine.
	New Factory
}

// Factories returns the named engine constructors for a query, the
// registry shared by ttcrun, ttcbench and the Fig. 5 lineup (ServedEngines
// lists the engines the server keeps warm).
// Names follow the CLI vocabulary: "batch", "incremental", "incremental-cc"
// (Q2 only), "nmf-batch", "nmf-incremental". Unknown queries return nil.
func Factories(query string) map[string]Factory {
	switch query {
	case "Q1":
		return map[string]Factory{
			"batch":           func() core.Solution { return core.NewQ1Batch() },
			"incremental":     func() core.Solution { return core.NewQ1Incremental() },
			"nmf-batch":       func() core.Solution { return nmf.NewQ1Batch() },
			"nmf-incremental": func() core.Solution { return nmf.NewQ1Incremental() },
		}
	case "Q2":
		return map[string]Factory{
			"batch":           func() core.Solution { return core.NewQ2Batch() },
			"incremental":     func() core.Solution { return core.NewQ2Incremental() },
			"incremental-cc":  func() core.Solution { return core.NewQ2IncrementalCC() },
			"nmf-batch":       func() core.Solution { return nmf.NewQ2Batch() },
			"nmf-incremental": func() core.Solution { return nmf.NewQ2Incremental() },
		}
	default:
		return nil
	}
}

// ServedEngine names one engine of the serving lineup: the key it is
// served under over HTTP, the query it answers (which also selects the
// change stream it receives — "Q1" engines every change; "Q2" engines
// every change but the comments nobody has liked yet, which the shard
// router parks), its constructor, and, for an entry that verifies
// another, that engine's key. Every served engine runs whole on one
// shard, chosen by its position among the served engines. internal/shard
// runs no verifying entry: it serves the verified engine's answer under
// the entry's key too, and checks the served answers with the batch
// engines instead. perfbench times each entry's engine, the paper's Q2
// included.
type ServedEngine struct {
	Key   string
	Query string
	New   func() core.Engine
	// Verifies is the key of the engine this one cross-checks, whose
	// answer the server also serves under Key, or "" for an engine every
	// commit waits for. A verifying engine is a Q2 engine.
	Verifies string
}

// ServedEngines returns the incremental engine lineup of internal/shard
// and internal/server, in serving order: the engines Factories names
// "incremental" and "incremental-cc". The paper's Q2 engine verifies the
// CC extension, which serves Q2.
func ServedEngines() []ServedEngine {
	return []ServedEngine{
		{Key: "q1", Query: "Q1", New: func() core.Engine { return core.NewQ1Incremental() }},
		{Key: "q2", Query: "Q2", New: func() core.Engine { return core.NewQ2Incremental() }, Verifies: "q2cc"},
		{Key: "q2cc", Query: "Q2", New: func() core.Engine { return core.NewQ2IncrementalCC() }},
	}
}

// Tools returns the Fig. 5 tool lineup for a query: GraphBLAS Batch and
// Incremental at 1 thread and at `parallelThreads` threads, plus the NMF
// reference pair.
func Tools(query string, parallelThreads int) []Tool {
	fs := Factories(query)
	if fs == nil {
		panic(fmt.Sprintf("harness: unknown query %q", query))
	}
	batch, incr := fs["batch"], fs["incremental"]
	nmfBatch, nmfIncr := fs["nmf-batch"], fs["nmf-incremental"]
	return []Tool{
		{Label: "GraphBLAS Batch", Threads: 1, New: batch},
		{Label: "GraphBLAS Incremental", Threads: 1, New: incr},
		{Label: fmt.Sprintf("GraphBLAS Batch (%d threads)", parallelThreads), Threads: parallelThreads, New: batch},
		{Label: fmt.Sprintf("GraphBLAS Incremental (%d threads)", parallelThreads), Threads: parallelThreads, New: incr},
		{Label: "NMF Batch", Threads: 1, New: nmfBatch},
		{Label: "NMF Incremental", Threads: 1, New: nmfIncr},
	}
}

// Measurement is the timing record of one benchmark run (or the geometric
// mean of several).
type Measurement struct {
	Load    time.Duration
	Initial time.Duration
	Updates []time.Duration // per change set: apply + reevaluate

	// Results is the sequence of query answers — initial first, then one
	// per change set — used to cross-validate tools against each other.
	Results []string
}

// LoadAndInitial is the paper's "load and initial evaluation" phase total.
func (m *Measurement) LoadAndInitial() time.Duration { return m.Load + m.Initial }

// UpdateTotal is the paper's "update and reevaluation" phase total across
// all change sets.
func (m *Measurement) UpdateTotal() time.Duration {
	var total time.Duration
	for _, u := range m.Updates {
		total += u
	}
	return total
}

// RunOnce drives one fresh solution instance through the whole benchmark
// sequence, timing every phase.
func RunOnce(f Factory, d *model.Dataset) (*Measurement, error) {
	sol := f()
	m := &Measurement{}

	start := time.Now()
	if err := sol.Load(d.Snapshot); err != nil {
		return nil, fmt.Errorf("%s load: %w", sol.Name(), err)
	}
	m.Load = time.Since(start)

	start = time.Now()
	res, err := sol.Initial()
	if err != nil {
		return nil, fmt.Errorf("%s initial: %w", sol.Name(), err)
	}
	m.Initial = time.Since(start)
	m.Results = append(m.Results, res.String())

	for k := range d.ChangeSets {
		start = time.Now()
		res, err = sol.Update(&d.ChangeSets[k])
		if err != nil {
			return nil, fmt.Errorf("%s update %d: %w", sol.Name(), k, err)
		}
		m.Updates = append(m.Updates, time.Since(start))
		m.Results = append(m.Results, res.String())
	}
	return m, nil
}

// Run executes runs repetitions and combines their timings with the
// geometric mean, as the paper reports. Results must be identical across
// repetitions; a mismatch is returned as an error.
func Run(f Factory, d *model.Dataset, runs int) (*Measurement, error) {
	if runs < 1 {
		runs = 1
	}
	all := make([]*Measurement, runs)
	for r := 0; r < runs; r++ {
		m, err := RunOnce(f, d)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			if err := sameResults(all[0].Results, m.Results); err != nil {
				return nil, fmt.Errorf("run %d: %w", r, err)
			}
		}
		all[r] = m
	}
	combined := &Measurement{
		Load:    geomeanDuration(all, func(m *Measurement) time.Duration { return m.Load }),
		Initial: geomeanDuration(all, func(m *Measurement) time.Duration { return m.Initial }),
		Results: all[0].Results,
	}
	for k := range all[0].Updates {
		combined.Updates = append(combined.Updates,
			geomeanDuration(all, func(m *Measurement) time.Duration { return m.Updates[k] }))
	}
	return combined, nil
}

func sameResults(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("harness: result counts differ (%d vs %d)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("harness: nondeterministic result at step %d: %q vs %q", i, a[i], b[i])
		}
	}
	return nil
}

// geomeanDuration combines one metric across runs with the geometric mean.
func geomeanDuration(ms []*Measurement, pick func(*Measurement) time.Duration) time.Duration {
	sum := 0.0
	for _, m := range ms {
		ns := float64(pick(m).Nanoseconds())
		if ns < 1 {
			ns = 1 // a 0ns phase would zero the product; clamp to 1ns
		}
		sum += math.Log(ns)
	}
	return time.Duration(math.Exp(sum / float64(len(ms))))
}
