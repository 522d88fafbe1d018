package loadgen

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// Min reports the exact smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := &Histogram{}
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d, want 64", h.Count())
	}
	// Values below 64 land in unit buckets: quantiles are exact.
	if got := h.Quantile(0.5); got != 31 {
		t.Errorf("p50 = %d, want 31", got)
	}
	if got := h.Quantile(1); got != 63 {
		t.Errorf("p100 = %d, want 63", got)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Errorf("min/max = %d/%d, want 0/63", h.Min(), h.Max())
	}
}

func TestHistogramQuantileError(t *testing.T) {
	// Against a known distribution the log-linear buckets must stay within
	// their ~1.6% relative error (upper-edge representative: always >= the
	// exact quantile, never more than one sub-bucket above it).
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	vals := make([]int64, 20000)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 2e6) // exponential, mean 2ms
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q%.3f = %d below exact %d (must err pessimistic)", q, got, exact)
		}
		if float64(got) > float64(exact)*1.04+64 {
			t.Errorf("q%.3f = %d overshoots exact %d by more than the bucket width", q, got, exact)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b, whole := &Histogram{}, &Histogram{}, &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		whole.Record(v * 1000)
		if v%2 == 0 {
			a.Record(v * 1000)
		} else {
			b.Record(v * 1000)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Min() != whole.Min() {
		t.Fatalf("merged count/max/min = %d/%d/%d, want %d/%d/%d",
			a.Count(), a.Max(), a.Min(), whole.Count(), whole.Max(), whole.Min())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%.2f: merged %d != whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 63, 64, 65, 1 << 20, 1<<20 + 5000, 1 << 40} {
		h.Record(v)
	}
	var total uint64
	for _, b := range h.Buckets() {
		if b.LowNs > b.HighNs {
			t.Errorf("bucket low %d > high %d", b.LowNs, b.HighNs)
		}
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// stubServe fakes just enough of the ttcserve API for the runner: queries
// answer a fixed body, updates decode the batch and validate its shape.
func stubServe(t *testing.T, updates *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/query/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"result":"1|2|3","seq":1}`))
	})
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Changes []map[string]any `json:"changes"`
			Wait    bool             `json:"wait"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Changes) == 0 {
			http.Error(w, "bad batch", http.StatusBadRequest)
			return
		}
		updates.Add(1)
		_, _ = w.Write([]byte(`{"queued":4,"committed":false,"seq":2}`))
	})
	return httptest.NewServer(mux)
}

func TestRunMixedTraffic(t *testing.T) {
	var updates atomic.Int64
	srv := stubServe(t, &updates)
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:    srv.URL,
		Duration:   400 * time.Millisecond,
		Readers:    3,
		Engines:    []string{"q1", "q2cc"},
		UpdateRate: 200,
		Timeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if updates.Load() == 0 {
		t.Fatal("no update reached the stub server")
	}
	byName := map[string]EndpointStats{}
	for _, e := range rep.Endpoints {
		byName[e.Endpoint] = e
	}
	for _, name := range []string{"read:q1", "read:q2cc", "update"} {
		es, ok := byName[name]
		if !ok {
			t.Fatalf("report is missing endpoint %q (have %v)", name, rep.Endpoints)
		}
		if es.Count == 0 {
			t.Errorf("%s: zero requests measured", name)
		}
		if es.Errors != 0 {
			t.Errorf("%s: %d errors against a healthy stub", name, es.Errors)
		}
		if es.P50Ns > es.P99Ns || es.P99Ns > es.MaxNs && es.P999Ns > es.MaxNs {
			t.Errorf("%s: quantiles not monotone: p50=%d p99=%d max=%d", name, es.P50Ns, es.P99Ns, es.MaxNs)
		}
		if len(es.Histogram) == 0 {
			t.Errorf("%s: empty histogram dump", name)
		}
	}
	if byName["update"].Loop != "open" || byName["read:q1"].Loop != "closed" {
		t.Error("loop labels wrong: updates are open-loop, reads closed-loop")
	}

	// The benchmarks array must follow cmd/benchjson's record schema so the
	// BENCH_PR.json tooling can diff load runs.
	if rep.Count != len(rep.Benchmarks) || rep.Count != len(rep.Endpoints) {
		t.Fatalf("count %d / benchmarks %d / endpoints %d disagree", rep.Count, len(rep.Benchmarks), len(rep.Endpoints))
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 {
			t.Errorf("bench record %+v lacks name or iterations", b)
		}
		for _, key := range []string{"p50-ns", "p99-ns", "p999-ns", "max-ns", "ops/s", "errors"} {
			if _, ok := b.Metrics[key]; !ok {
				t.Errorf("bench record %s is missing metric %q", b.Name, key)
			}
		}
	}
}

// TestRunOpenLoopChargesBacklog pins the coordinated-omission correction:
// update latency is measured from the intended dispatch time, so when the
// server stalls longer than the schedule interval the measured tail must
// include the queueing delay — roughly stall × backlog depth — not just
// the per-request service time a closed-loop generator would see.
func TestRunOpenLoopChargesBacklog(t *testing.T) {
	const stall = 60 * time.Millisecond
	mux := http.NewServeMux()
	var sem = make(chan struct{}, 1) // serialize updates like a single writer
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		sem <- struct{}{}
		time.Sleep(stall)
		<-sem
		_, _ = w.Write([]byte(`{}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:    srv.URL,
		Duration:   450 * time.Millisecond,
		UpdateRate: 100, // 10ms schedule vs 60ms serialized service: backlog grows
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var upd EndpointStats
	for _, e := range rep.Endpoints {
		if e.Endpoint == "update" {
			upd = e
		}
	}
	if upd.Count < 3 {
		t.Fatalf("only %d updates measured", upd.Count)
	}
	// With CO correction the max latency must reflect the accumulated
	// backlog (several stalls deep), not a single service time.
	if upd.MaxNs < int64(2*stall) {
		t.Errorf("max update latency %v does not include queueing delay (stall %v)",
			time.Duration(upd.MaxNs), stall)
	}
}

func TestValidate(t *testing.T) {
	base := Config{BaseURL: "http://x", Duration: time.Second, Readers: 1}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Duration: time.Second, Readers: 1},                                                 // no URL
		{BaseURL: "http://x", Readers: 1},                                                   // no duration
		{BaseURL: "http://x", Duration: time.Second},                                        // nothing to do
		{BaseURL: "http://x", Duration: time.Second, Readers: -1},                           // negative readers
		{BaseURL: "http://x", Duration: time.Second, UpdateRate: -5},                        // negative rate
		{BaseURL: "http://x", Duration: time.Second, Readers: 1, Engines: []string{"nope"}}, // unknown engine
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
