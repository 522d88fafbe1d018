package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// series holds one kind of measured duration, in nanoseconds. Quantiles
// are exact order statistics over the raw samples: loadgen.Histogram's
// bucket edges would quantize a steady metric to the same value on every
// run.
type series []int64

// quantile returns the nearest-rank q-quantile (0 when empty).
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return float64(c[i])
}

func (s series) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// readPaths are the query endpoints readers cycle over.
var readPaths = []string{"/query/q1", "/query/q2", "/query/q2?engine=cc"}

// warmupFraction of the update stream runs before measurement starts:
// connections, caches and the server's heap settle first.
const warmupFraction = 0.1

// spinWindow is how long before an open-loop op's due time the generator
// stops sleeping and spins: timer overshoot on Linux is tens to hundreds
// of microseconds, which would otherwise shift most ops off schedule.
const spinWindow = 200 * time.Microsecond

// driveResult is what the client measured. Latencies cover the measured
// window only: from the send of the first update after warm-up to the
// final update's acknowledgement.
type driveResult struct {
	upd, read series
	// updLate and readLate are the generator's own lateness in sending
	// each open-loop update and read (see sendAt).
	updLate, readLate series
	// window is the measured span; windowChanges the changes sent in it.
	window        time.Duration
	windowChanges int
	// updSent/readSent count requests; *Failed those that got no 200.
	updSent, updFailed   int
	readSent, readFailed int
	// ackedChanges counts changes in update requests answered 200.
	ackedChanges int
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests while the stream ran (-1 when unknown): a
	// slow run with a high share was slowed by its neighbours.
	stealShare float64
}

// newClient returns a client holding at most one connection, so the
// updater and the reader each use exactly one.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// waitUntil blocks until t: it sleeps to within spinWindow, then spins.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func post(client *http.Client, url string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
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

func get(client *http.Client, url string) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// readSample is one read: when it was sent, its latency, and the
// generator's own lateness in sending it.
type readSample struct {
	start time.Time
	lat   time.Duration
	late  time.Duration
	ok    bool
}

// sendAt waits for an open-loop op's due time and returns when it was
// sent, the time its latency counts from, and the generator's own
// lateness. While the previous op on the connection was still running at
// the due time the op counts from its due time, so a server stall is
// charged to every op it delays; otherwise it counts from the actual send,
// so the generator's wake-up delay is reported as lateness rather than
// charged to the server.
func sendAt(due, prevDone time.Time) (sent, from time.Time, late time.Duration) {
	waitUntil(due)
	sent = time.Now()
	if prevDone.After(due) {
		return sent, due, sent.Sub(prevDone)
	}
	return sent, sent, sent.Sub(due)
}

// drive sends the update stream over one connection and reads over a
// second until the stream's last update is acknowledged.
func drive(ctx context.Context, w workload, base string, bodies [][]byte, sizes []int) driveResult {
	updClient, readClient := newClient(), newClient()
	defer updClient.CloseIdleConnections()
	defer readClient.CloseIdleConnections()

	warm := int(float64(len(bodies)) * warmupFraction)
	t0 := time.Now().Add(20 * time.Millisecond)
	done := make(chan struct{})
	var reads []readSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = readLoop(done, w, base, readClient, t0)
	}()

	var res driveResult
	var windowStart, prevDone time.Time
	cpu0 := readCPUTimes()
	for i, body := range bodies {
		if ctx.Err() != nil {
			break
		}
		now := time.Now()
		sent, from, late := now, now, time.Duration(0)
		if !w.ingest {
			due := t0.Add(time.Duration(float64(i) / w.updateRate * float64(time.Second)))
			sent, from, late = sendAt(due, prevDone)
		}
		ok := post(updClient, base+"/update", body)
		prevDone = time.Now()
		lat := prevDone.Sub(from)
		res.updSent++
		if ok {
			res.ackedChanges += sizes[i]
		} else {
			res.updFailed++
		}
		if i == warm {
			windowStart = sent
		}
		if i >= warm {
			res.windowChanges += sizes[i]
			if ok {
				res.upd = append(res.upd, int64(lat))
			}
			if !w.ingest {
				res.updLate = append(res.updLate, int64(late))
			}
		}
	}
	end := time.Now()
	res.stealShare = readCPUTimes().stealSince(cpu0)
	close(done)
	wg.Wait()
	res.window = end.Sub(windowStart)

	for _, r := range reads {
		res.readSent++
		if !r.ok {
			res.readFailed++
			continue
		}
		if r.start.Before(windowStart) || r.start.After(end) {
			continue
		}
		res.read = append(res.read, int64(r.lat))

		if w.readRate > 0 {
			res.readLate = append(res.readLate, int64(r.late))
		}
	}
	return res
}

// readLoop reads until done: closed-loop when w.readRate is 0, otherwise
// open-loop at w.readRate with each read timed from its due time.
func readLoop(done <-chan struct{}, w workload, base string, client *http.Client, t0 time.Time) []readSample {
	var out []readSample
	var prevDone time.Time
	for n := 0; ; n++ {
		select {
		case <-done:
			return out
		default:
		}
		url := base + readPaths[n%len(readPaths)]
		now := time.Now()
		sent, from, late := now, now, time.Duration(0)
		if w.readRate > 0 {
			due := t0.Add(time.Duration(float64(n) / w.readRate * float64(time.Second)))
			sent, from, late = sendAt(due, prevDone)
		}
		ok := get(client, url)
		prevDone = time.Now()
		out = append(out, readSample{start: sent, lat: prevDone.Sub(from), late: late, ok: ok})
	}
}

// cpuTimes are the machine-wide CPU counters of /proc/stat's "cpu" line.
type cpuTimes []int64

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var t cpuTimes
	for _, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

// stealSince is the steal share of all CPU time between two readings.
func (t cpuTimes) stealSince(prev cpuTimes) float64 {
	if len(t) != 8 || len(prev) != 8 {
		return -1
	}
	var total int64
	for i := range t {
		total += t[i] - prev[i]
	}
	if total <= 0 {
		return -1
	}
	return float64(t[7]-prev[7]) / float64(total)
}
