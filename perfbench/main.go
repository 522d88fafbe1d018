// Command perfbench is the repository's serving benchmark. For one
// workload and seed it generates a dataset with internal/datagen, writes
// the initial snapshot as a ttcgen directory, starts ttcserve on it as a
// separate process, replays a fixed-length prefix of the change stream
// over HTTP (one connection for updates, one for reads), checks every
// served answer against a batch-engine reference, and prints the
// end-to-end metrics. With -trace 1 it then replays the same commits
// in-process through each layer's public entry point (grb, core, model,
// shard, server, wal) and prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds this
// command and ttcserve from source first:
//
//	bash perfbench/run.sh --workload serve-sf32 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"repro/internal/model"
)

// setupRuns is how many times a run starts the server; setup_s is their
// median, and the last start serves the measured traffic.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // ttcserve binary
	work     string // work directory for datasets, logs and spans
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps report order.
type namedMetric struct {
	name string
	metric
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "dataset seed")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal measured seconds; sets the stream prefix length")
	flag.IntVar(&trace, "trace", 0, "1 replays the commits in-process and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "ttcserve binary")
	flag.StringVar(&o.work, "work", "", "work directory for datasets, logs and spans")
	flag.Parse()
	o.trace = trace == 1
	if _, err := findWorkload(o.workload); err != nil || o.seconds < 1 || (trace != 0 && trace != 1) ||
		o.bin == "" || o.work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name> -seconds >=1 -trace 0|1 -bin <ttcserve> -work <dir>")
		os.Exit(2)
	}

	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// e2eRun is everything one end-to-end run measured.
type e2eRun struct {
	setups series // ns
	drive  driveResult
	rssMiB float64
	stats  statsDoc
	served served
}

func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, _ := findWorkload(o.workload)
	dir := filepath.Join(o.work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	in := generate(w, o.seed, o.seconds)
	dataDir := filepath.Join(dir, "dataset")
	if err := model.WriteDataset(dataDir, &model.Dataset{Snapshot: in.initial}); err != nil {
		return nil, fmt.Errorf("write dataset: %w", err)
	}
	bodies, err := updateBodies(w, in.sets)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(in.sets))
	for i := range in.sets {
		sizes[i] = len(in.sets[i].Changes)
	}
	ref, err := buildReference(in)
	if err != nil {
		return nil, err
	}

	// A traced run reports no setup time, so it starts the server once.
	setups := setupRuns
	if o.trace {
		setups = 1
	}
	r, err := runServed(ctx, w, o.bin, dir, dataDir, bodies, sizes, setups)
	if err != nil {
		return nil, err
	}
	checkErr := check(r.served, ref)

	fmt.Fprintf(out, "workload %s  seed %d  sf %d  change sets %d  changes %d\n",
		w.name, o.seed, w.sf, len(in.sets), in.changes)
	attempted, failed := reportFailures(out, r)
	reportSamples(out, r.drive)
	if checkErr != nil {
		fmt.Fprintf(out, "CORRECTNESS FAILURE: %v\n", checkErr)
	} else {
		fmt.Fprintln(out, "correctness: q1, q2, q2cc equal the batch reference; changes committed = sent; q2Disagreements = 0")
	}
	res := &result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	var ms []namedMetric
	if o.trace {
		tr, err := traceLayers(w, in, filepath.Join(dir, "trace"))
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		spanFile := filepath.Join(dir, "spans.json")
		if err := tr.writeSpans(spanFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spanFile)
		ms = layerMetrics(w, r, tr)
		printSanity(out, w, r, tr)
	} else {
		ms = e2eMetrics(r)
	}
	printMetrics(out, ms)
	for _, m := range ms {
		res.Metrics[m.name] = m.metric
	}
	return res, nil
}

// serverArgs are ttcserve's flags for a workload; everything else keeps
// its default (-batch 64, -flush 2ms, -fsync always, -snapshot-every 256).
func serverArgs(w workload, dataDir, persistDir string) []string {
	args := []string{"-data", dataDir, "-shards", strconv.Itoa(w.shards)}
	if w.durable {
		args = append(args, "-data-dir", persistDir)
	}
	return args
}

// runServed starts ttcserve `setups` times (each on a fresh durability
// directory), drives the last one, and collects what it served.
func runServed(ctx context.Context, w workload, bin, dir, dataDir string, bodies [][]byte, sizes []int, setups int) (*e2eRun, error) {
	// While a server runs, an interrupt stops it before exiting.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &e2eRun{}
	var p *serverProc
	for k := 0; k < setups; k++ {
		persist := filepath.Join(dir, fmt.Sprintf("durable-%d", k))
		logPath := filepath.Join(dir, fmt.Sprintf("ttcserve-%d.log", k))
		sp, d, err := startServer(ctx, bin, serverArgs(w, dataDir, persist), logPath)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, int64(d))
		if k < setups-1 {
			sp.stop()
			continue
		}
		p = sp
	}
	defer p.stop()

	r.drive = drive(ctx, w, p.base, bodies, sizes)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	if err := getJSON(client, p.base+"/stats", &r.stats); err != nil {
		return nil, err
	}
	r.served = served{
		results:         map[string]string{},
		changes:         map[string]int{},
		q2Disagreements: r.stats.Q2Disagreements,
	}
	for key, path := range map[string]string{"q1": readPaths[0], "q2": readPaths[1], "q2cc": readPaths[2]} {
		var q queryDoc
		if err := getJSON(client, p.base+path, &q); err != nil {
			return nil, err
		}
		r.served.results[key], r.served.changes[key] = q.Result, q.Changes
	}
	rss, err := p.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.rssMiB = rss
	return r, nil
}

// reportFailures prints the failure accounting with its base and returns
// (attempted, failed). Attempts are requests; a change acknowledged with
// wait=false but never committed counts as one more failure, since the
// client never saw it rejected.
func reportFailures(out io.Writer, r *e2eRun) (attempted, failed int) {
	d := r.drive
	lost := d.ackedChanges - r.stats.Changes
	if lost < 0 {
		lost = 0
	}
	attempted = d.updSent + d.readSent
	failed = d.updFailed + d.readFailed + lost
	rate := float64(failed) / float64(attempted)
	fmt.Fprintf(out, "attempted %d = %d update requests + %d reads; failed %d = %d updates + %d reads + %d changes never committed; error_rate %.4g\n",
		attempted, d.updSent, d.readSent, failed, d.updFailed, d.readFailed, lost, rate)
	return attempted, failed
}

// lateFlag is the share of a latency's median that the generator's p99
// lateness may reach before the run is flagged: beyond it, the offered
// schedule was not kept closely enough to call the load open-loop.
const lateFlag = 0.25

// reportSamples prints the sample counts behind every timing and how late
// the open-loop generator sent its ops (its own delay, which sendAt keeps
// out of the latencies), flagging lateness that is not small next to the
// latency measured.
func reportSamples(out io.Writer, d driveResult) {
	fmt.Fprintf(out, "measured window %.2f s after %.0f%% warm-up: %d update latencies, %d read latencies; cpu steal %.1f%%\n",
		d.window.Seconds(), warmupFraction*100, len(d.upd), len(d.read), d.stealShare*100)
	// The tails and the read throughput are printed, and reported by traced
	// runs, but not bounded: their run-to-run spread is wider than a bound
	// may be, and on serve-sf32 read_p50_us carries the closed-loop
	// reader's throughput already.
	fmt.Fprintf(out, "tails: update p99 %.3f ms (%d beyond), read p99 %.1f us (%d beyond); reads %.1f/s\n",
		d.upd.quantile(0.99)/1e6, len(d.upd)/100, d.read.quantile(0.99)/1e3, len(d.read)/100, d.readsPerSecond())
	for _, l := range []struct {
		what      string
		late, lat series
	}{{"update", d.updLate, d.upd}, {"read", d.readLate, d.read}} {
		if len(l.late) == 0 {
			continue
		}
		late, p50 := l.late.quantile(0.99), l.lat.quantile(0.5)
		flag := ""
		if late > lateFlag*p50 {
			flag = "  FLAG: generator lateness is not small next to the latency"
		}
		fmt.Fprintf(out, "open-loop %s sends: lateness p99 %.3f ms vs %s p50 %.3f ms%s\n", l.what, late/1e6, l.what, p50/1e6, flag)
	}
}

// e2eMetrics are the numbers a user of the server sees, the ones a later
// change may not worsen beyond their bounds in BENCHMARK.json. Every
// workload reports every one: on ingest-sf128 the update latency is the
// wait=false acknowledgement (the stream is closed-loop), and elsewhere
// changes_per_s follows the offered rate.
func e2eMetrics(r *e2eRun) []namedMetric {
	d := r.drive
	return []namedMetric{
		{"setup_s", metric{r.setups.quantile(0.5) / 1e9, "s"}},
		{"changes_per_s", metric{safeDiv(float64(d.windowChanges), d.window.Seconds()), "changes/s"}},
		{"update_p50_ms", metric{d.upd.quantile(0.50) / 1e6, "ms"}},
		{"read_p50_us", metric{d.read.quantile(0.50) / 1e3, "us"}},
		{"server_rss_mb", metric{r.rssMiB, "MiB"}},
	}
}

// readsPerSecond is the reader's throughput over the measured window: the
// closed-loop reader's on serve-sf32 and churn-durable-sf32, the offered
// rate on ingest-sf128.
func (d driveResult) readsPerSecond() float64 {
	return safeDiv(float64(len(d.read)), d.window.Seconds())
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(out io.Writer, ms []namedMetric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.name, m.Value, m.Unit)
	}
}
