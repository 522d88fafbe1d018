package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running ttcserve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches ttcserve and returns once /healthz answers 200,
// with the time from process start to that answer: CSV read, engine Load
// and Initial, and (with -data-dir) the seed snapshot.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}

	client := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("ttcserve exited during start-up (%v); see %s", p.err, logPath)
		case <-ctx.Done():
			p.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the server down gracefully (SIGTERM: drain, final snapshot)
// and waits for it to exit, killing it if it does not within 30s.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// statsDoc is the subset of GET /stats the benchmark reads.
type statsDoc struct {
	LoadMs          float64 `json:"loadMs"`
	InitialMs       float64 `json:"initialMs"`
	Seq             int     `json:"seq"`
	Changes         int     `json:"changes"`
	Q2Disagreements int     `json:"q2Disagreements"`
	Rebalances      int     `json:"rebalances"`
	DonorRepairs    int     `json:"donorRepairs"`
	DonorReloads    int     `json:"donorReloads"`
	Persistence     *struct {
		WalAppends         int64 `json:"walAppends"`
		WalBytes           int64 `json:"walBytes"`
		WalFsyncs          int64 `json:"walFsyncs"`
		MaxSnapshotStallNs int64 `json:"maxSnapshotStallNs"`
	} `json:"persistence"`
}

// queryDoc is the subset of a /query response the correctness gate reads.
type queryDoc struct {
	Result  string `json:"result"`
	Changes int    `json:"changes"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
