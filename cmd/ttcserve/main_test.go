package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// TestValidateFlags doubles as the build-level smoke test: having any test
// in this package makes `go test ./...` compile the binary.
func TestValidateFlags(t *testing.T) {
	type flags struct {
		addr, data, fsync    string
		sf, shards           int
		snapEvery, compEvery int
	}
	ok := flags{addr: ":8080", fsync: "always", sf: 1, shards: 1, snapEvery: 256}
	cases := []struct {
		name    string
		mut     func(*flags)
		wantErr bool
	}{
		{"ok", func(f *flags) {}, false},
		{"ok sharded", func(f *flags) { f.shards = 8 }, false},
		{"ok data ignores sf", func(f *flags) { f.data, f.sf = "data/sf8", 0 }, false},
		{"ok fsync interval", func(f *flags) { f.fsync = "interval" }, false},
		{"ok fsync off", func(f *flags) { f.fsync = "off" }, false},
		{"ok snapshots disabled", func(f *flags) { f.snapEvery = -1 }, false},
		{"empty addr", func(f *flags) { f.addr = "" }, true},
		{"zero sf", func(f *flags) { f.sf = 0 }, true},
		{"zero shards", func(f *flags) { f.shards = 0 }, true},
		{"negative shards", func(f *flags) { f.shards = -2 }, true},
		{"bad fsync policy", func(f *flags) { f.fsync = "sometimes" }, true},
		{"nondefault snapshot-every", func(f *flags) { f.snapEvery = 10 }, false},
		{"zero snapshot-every", func(f *flags) { f.snapEvery = 0 }, true},
		{"ok compact-every", func(f *flags) { f.compEvery = 64 }, false},
		{"negative compact-every", func(f *flags) { f.compEvery = -1 }, true},
	}
	for _, tc := range cases {
		f := ok
		tc.mut(&f)
		policy, err := validateFlags(f.addr, f.data, f.fsync, f.sf, f.shards, f.snapEvery, f.compEvery)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
		if tc.name == "ok fsync off" && err == nil && policy != wal.SyncOff {
			t.Errorf("fsync off resolved to %v", policy)
		}
	}
}

// TestHTTPServerTimeouts pins the connection bounds: a slow client cannot
// hold a connection by trickling headers or a body, or by idling, and no
// WriteTimeout cuts off a waited update whose commit takes long.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a bound", s.ReadHeaderTimeout)
	}
	if s.ReadTimeout <= 0 {
		t.Errorf("ReadTimeout = %v, want a bound", s.ReadTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a bound", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", s.WriteTimeout)
	}
}

// TestSlowUpdateBodyIsCutOff trickles an /update body one byte at a time
// into the real handler: the read bound ends that request, and a normal
// waited update on the same server still commits.
func TestSlowUpdateBodyIsCutOff(t *testing.T) {
	srv, err := server.New(server.Config{ScaleFactor: 1, Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := newHTTPServer("127.0.0.1:0", srv.Handler())
	hs.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The body is 4 KiB of JSON whitespace, sent at 100 B/s: 40 s unbounded.
	if _, err := fmt.Fprintf(conn, "POST /update HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if _, err := conn.Write([]byte(" ")); err != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-stopped }()
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("trickled request not ended after %v: %v", time.Since(start), err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("trickled request answered %s, want an error", resp.Status)
	}

	body := `{"changes":[{"kind":"add-user","user":{"id":900001}}],"wait":true}`
	resp, err = http.Post("http://"+ln.Addr().String()+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal update after the slow one: %s, want 200", resp.Status)
	}
}
