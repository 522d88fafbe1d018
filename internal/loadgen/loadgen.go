package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/server"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the ttcserve root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// Duration is how long to generate traffic. Required.
	Duration time.Duration
	// Readers is the number of closed-loop read workers (each issues its
	// next GET when the previous answer arrives), cycling over Engines.
	Readers int
	// Engines selects the read endpoints: "q1", "q2", "q2cc".
	// Default: all three.
	Engines []string
	// UpdateRate is the open-loop update schedule in ops/second (0 disables
	// updates). Each op POSTs one self-contained story batch (user, post,
	// comment, like) with fresh ids, so it always passes validation.
	UpdateRate float64
	// UpdateWait makes updates block until their batch is committed
	// (wait=true), measuring commit latency instead of enqueue latency.
	UpdateWait bool
	// Timeout bounds each HTTP request. Default 10s.
	Timeout time.Duration
}

// idBase is the first generated entity id; a run uses idBase and up in
// every id space, far above any dataset's ids.
const idBase = 1 << 40

func (c Config) withDefaults() Config {
	if len(c.Engines) == 0 {
		c.Engines = []string{"q1", "q2", "q2cc"}
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// readPath maps an engine name to its query endpoint.
func readPath(engine string) (string, bool) {
	switch engine {
	case "q1":
		return "/query/q1", true
	case "q2":
		return "/query/q2", true
	case "q2cc":
		return "/query/q2?engine=cc", true
	default:
		return "", false
	}
}

// Validate rejects nonsense configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: base URL is required")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive (got %v)", c.Duration)
	}
	if c.Readers < 0 {
		return fmt.Errorf("loadgen: readers must be >= 0 (got %d)", c.Readers)
	}
	if c.UpdateRate < 0 {
		return fmt.Errorf("loadgen: update rate must be >= 0 (got %v)", c.UpdateRate)
	}
	if c.Readers == 0 && c.UpdateRate == 0 {
		return fmt.Errorf("loadgen: nothing to do (0 readers and 0 update rate)")
	}
	for _, e := range c.Engines {
		if _, ok := readPath(e); !ok {
			return fmt.Errorf("loadgen: unknown engine %q (want q1, q2 or q2cc)", e)
		}
	}
	return nil
}

// endpointTally is one endpoint's accumulating measurement state.
type endpointTally struct {
	mu     sync.Mutex
	hist   Histogram
	errors uint64
}

// record measures one completed op. Failed requests count only as errors
// — their (often fail-fast) round trips never enter the histogram, so a
// burst of 503s cannot masquerade as a latency improvement in the
// quantiles.
func (t *endpointTally) record(latency time.Duration, ok bool) {
	t.mu.Lock()
	if ok {
		t.hist.Record(latency.Nanoseconds())
	} else {
		t.errors++
	}
	t.mu.Unlock()
}

// fold merges one worker's private histogram in (reader workers record
// contention-free and fold once at exit; only the open-loop updater's
// concurrent completions share a tally lock per op).
func (t *endpointTally) fold(h *Histogram, errs uint64) {
	t.mu.Lock()
	t.hist.Merge(h)
	t.errors += errs
	t.mu.Unlock()
}

// Run drives the configured traffic until Duration elapses (or ctx is
// canceled) and reports what was measured. Read workers each record into
// the shared per-endpoint tallies; updates are scheduled open-loop with
// latencies measured from the intended dispatch time.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.Timeout}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	tallies := make(map[string]*endpointTally)
	for _, e := range cfg.Engines {
		tallies["read:"+e] = &endpointTally{}
	}
	if cfg.UpdateRate > 0 {
		tallies["update"] = &endpointTally{}
	}

	start := time.Now()
	var wg sync.WaitGroup

	// Closed-loop readers. Each worker records into private per-engine
	// histograms — no lock on the measurement path — and folds them into
	// the shared tallies once, on exit.
	for i := 0; i < cfg.Readers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			local := make(map[string]*Histogram, len(cfg.Engines))
			localErrs := make(map[string]uint64, len(cfg.Engines))
			for _, e := range cfg.Engines {
				local[e] = &Histogram{}
			}
			defer func() {
				for _, e := range cfg.Engines {
					tallies["read:"+e].fold(local[e], localErrs[e])
				}
			}()
			for n := worker; ctx.Err() == nil; n++ {
				engine := cfg.Engines[n%len(cfg.Engines)]
				path, _ := readPath(engine)
				t0 := time.Now()
				ok := doGet(ctx, client, cfg.BaseURL+path)
				if ctx.Err() != nil && !ok {
					return // shutdown race, not a server error
				}
				if ok {
					local[engine].Record(time.Since(t0).Nanoseconds())
				} else {
					localErrs[engine]++
				}
			}
		}(i)
	}

	// Open-loop updater: ops fire at intended times start + n/rate; the
	// recorded latency spans intended-start → completion, so a server that
	// stalls (and backs the schedule up) is charged for the queueing delay
	// it caused — the coordinated-omission correction.
	var idCounter atomic.Int64
	idCounter.Store(idBase)
	if cfg.UpdateRate > 0 {
		interval := time.Duration(float64(time.Second) / cfg.UpdateRate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops sync.WaitGroup
			defer ops.Wait()
			for n := 0; ; n++ {
				intended := start.Add(time.Duration(n) * interval)
				if d := time.Until(intended); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				} else if ctx.Err() != nil {
					return
				}
				body := storyBatch(&idCounter, cfg.UpdateWait)
				ops.Add(1)
				go func(intended time.Time) {
					defer ops.Done()
					ok := doPost(ctx, client, cfg.BaseURL+"/update", body)
					if ctx.Err() != nil && !ok {
						return
					}
					tallies["update"].record(time.Since(intended), ok)
				}(intended)
			}
		}()
	}

	wg.Wait()
	return buildReport(cfg, time.Since(start), tallies), nil
}

// storyBatch builds one referentially self-contained update: a fresh user
// posts, comments on the post, and likes the comment. Applied in order the
// batch always validates, whatever else is in the graph.
func storyBatch(counter *atomic.Int64, wait bool) []byte {
	n := counter.Add(1)
	ts := n // monotone timestamps keep ranking deterministic
	changes := []model.Change{
		{Kind: model.KindAddUser, User: model.User{ID: n}},
		{Kind: model.KindAddPost, Post: model.Post{ID: n, Timestamp: ts}},
		{Kind: model.KindAddComment, Comment: model.Comment{ID: n, Timestamp: ts, ParentID: n, PostID: n}},
		{Kind: model.KindAddLike, Like: model.Like{UserID: n, CommentID: n}},
	}
	wire := make([]any, len(changes))
	for i, ch := range changes {
		wire[i] = server.WireChange(ch)
	}
	body, err := json.Marshal(map[string]any{"changes": wire, "wait": wait})
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshal story batch: %v", err)) // impossible: fixed shape
	}
	return body
}

func doGet(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

func doPost(ctx context.Context, client *http.Client, url string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// drain consumes and closes a response body so the client's connection
// pool can reuse the connection (a leaked body would open a new connection
// per request and measure dial latency, not server latency).
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
