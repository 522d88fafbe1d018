package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/server"
)

// TestGroupCommitsMatchesBatcher checks the traced run's commit grouping
// against the server's own batcher. With a flush interval that never
// fires, a batch closes only once it holds MaxBatch changes (or when Close
// drains the queue), which is how ingest's always-full queue batches.
func TestGroupCommitsMatchesBatcher(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 7, ChangeSets: 300})
	groups := groupCommits(d.ChangeSets, maxBatch)

	var stream, grouped []model.Change
	for i := range d.ChangeSets {
		stream = append(stream, d.ChangeSets[i].Changes...)
	}
	normalized := model.ChangeSet{Changes: stream}
	normalized.Normalize()
	set := 0 // next change set not yet in a group
	for g := range groups {
		grouped = append(grouped, groups[g].Changes...)
		n, last := 0, 0
		for n < len(groups[g].Changes) {
			last = len(d.ChangeSets[set].Changes)
			n += last
			set++
		}
		if n != len(groups[g].Changes) {
			t.Fatalf("group %d splits a change set", g)
		}
		if g < len(groups)-1 && (n < maxBatch || n-last >= maxBatch) {
			t.Fatalf("group %d has %d changes (last set %d): not the first point at or past %d", g, n, last, maxBatch)
		}
	}
	if !reflect.DeepEqual(grouped, normalized.Changes) {
		t.Fatal("groups do not concatenate to the normalized stream")
	}

	srv, err := server.New(server.Config{
		Dataset:       &model.Dataset{Snapshot: d.Snapshot},
		MaxBatch:      maxBatch,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.ChangeSets {
		if err := srv.Enqueue(d.ChangeSets[i].Changes, false); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.Seq != len(groups) || snap.Changes != len(stream) {
		t.Fatalf("server made %d commits of %d changes; grouping predicts %d of %d",
			snap.Seq, snap.Changes, len(groups), len(stream))
	}
}

// TestCheckRejectsPerturbedAnswers runs a stream through an in-process
// server, accepts what it serves, and rejects every perturbation of it.
func TestCheckRejectsPerturbedAnswers(t *testing.T) {
	w := workload{sf: 1, removalFraction: 0.35, shards: 2, updateRate: 20}
	in := generate(w, 11, 3)
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Dataset: &model.Dataset{Snapshot: in.initial.Clone()}, Shards: w.shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.sets {
		if err := srv.Enqueue(in.sets[i].Changes, true); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()
	srv.Close()

	good := func() served {
		s := served{results: map[string]string{}, changes: map[string]int{}}
		for key, res := range snap.Results {
			s.results[key], s.changes[key] = res, snap.Changes
		}
		return s
	}
	if err := check(good(), ref); err != nil {
		t.Fatalf("served answers rejected: %v", err)
	}
	for _, key := range []string{server.EngineQ1, server.EngineQ2, server.EngineQ2CC} {
		s := good()
		s.results[key] = "1|2|3"
		if check(s, ref) == nil {
			t.Errorf("wrong %s answer accepted", key)
		}
		s = good()
		s.changes[key]--
		if check(s, ref) == nil {
			t.Errorf("%s missing a change accepted", key)
		}
	}
	s := good()
	s.q2Disagreements = 1
	if check(s, ref) == nil {
		t.Error("Q2 disagreement accepted")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics, their
// units and the workloads in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	asEntries := func(ms []namedMetric) []entry {
		var out []entry
		for _, m := range ms {
			out = append(out, entry{m.name, m.Unit})
		}
		return out
	}
	var names []entry
	for _, w := range workloads {
		names = append(names, entry{Name: w.name})
	}
	for i := range spec.Workloads {
		spec.Workloads[i] = entry{Name: spec.Workloads[i].Name}
	}
	if !reflect.DeepEqual(names, spec.Workloads) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, spec.Workloads)
	}
	r := &e2eRun{setups: series{int64(time.Second)}}
	if got := asEntries(e2eMetrics(r)); !reflect.DeepEqual(got, spec.EndToEnd) {
		t.Errorf("end-to-end metrics\n%v\nBENCHMARK.json\n%v", got, spec.EndToEnd)
	}
	for _, w := range workloads {
		got := asEntries(layerMetrics(w, r, &trace{dur: map[string]series{}}))
		if !reflect.DeepEqual(got, spec.PerLayer) {
			t.Errorf("%s per-layer metrics\n%v\nBENCHMARK.json\n%v", w.name, got, spec.PerLayer)
		}
	}
}

// TestSendAtChargesOnlyServerBacklog pins the open-loop timing rule.
func TestSendAtChargesOnlyServerBacklog(t *testing.T) {
	due := time.Now().Add(-time.Millisecond)
	// The previous op finished after this one was due: the server held
	// the connection, so the op counts from its due time.
	if _, from, _ := sendAt(due, due.Add(500*time.Microsecond)); !from.Equal(due) {
		t.Errorf("backlogged op counts from %v, want its due time", from)
	}
	// The connection was idle at the due time: lateness is the generator's.
	sent, from, late := sendAt(due, due.Add(-time.Millisecond))
	if !from.Equal(sent) || late < time.Millisecond {
		t.Errorf("idle-connection op counts from %v (sent %v, late %v)", from, sent, late)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := series{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.99: 5, 0: 1} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
