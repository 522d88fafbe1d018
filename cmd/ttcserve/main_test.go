package main

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestValidateFlags doubles as the build-level smoke test: having any test
// in this package makes `go test ./...` compile the binary.
func TestValidateFlags(t *testing.T) {
	type flags struct {
		addr, data, fsync                 string
		sf, threads, batch, queue, shards int
		snapEvery, compEvery              int
		flush, fsyncIvl                   time.Duration
	}
	ok := flags{addr: ":8080", fsync: "always", sf: 1, threads: 1, batch: 64,
		queue: 256, shards: 1, snapEvery: 256, flush: time.Millisecond, fsyncIvl: time.Millisecond}
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
		{"zero threads", func(f *flags) { f.threads = 0 }, true},
		{"zero batch", func(f *flags) { f.batch = 0 }, true},
		{"zero queue", func(f *flags) { f.queue = 0 }, true},
		{"zero shards", func(f *flags) { f.shards = 0 }, true},
		{"negative shards", func(f *flags) { f.shards = -2 }, true},
		{"zero flush", func(f *flags) { f.flush = 0 }, true},
		{"negative flush", func(f *flags) { f.flush = -time.Second }, true},
		{"bad fsync policy", func(f *flags) { f.fsync = "sometimes" }, true},
		{"zero fsync interval", func(f *flags) { f.fsyncIvl = 0 }, true},
		{"nondefault snapshot-every", func(f *flags) { f.snapEvery = 10 }, false},
		{"zero snapshot-every", func(f *flags) { f.snapEvery = 0 }, true},
		{"ok compact-every", func(f *flags) { f.compEvery = 64 }, false},
		{"negative compact-every", func(f *flags) { f.compEvery = -1 }, true},
	}
	for _, tc := range cases {
		f := ok
		tc.mut(&f)
		policy, err := validateFlags(f.addr, f.data, f.fsync,
			f.sf, f.threads, f.batch, f.queue, f.shards, f.snapEvery, f.compEvery, f.flush, f.fsyncIvl)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
		if tc.name == "ok fsync off" && err == nil && policy != wal.SyncOff {
			t.Errorf("fsync off resolved to %v", policy)
		}
	}
}

// TestHTTPServerTimeouts pins the connection bounds: a slow client cannot
// hold a connection by trickling headers or idling, and no WriteTimeout
// cuts off a waited update whose commit takes long.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a bound", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a bound", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", s.WriteTimeout)
	}
}
