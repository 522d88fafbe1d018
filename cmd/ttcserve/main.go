// Command ttcserve runs the serving subsystem: it loads (or generates) a
// Social Media dataset, keeps the incremental engines warm, and serves
// concurrent Q1/Q2 reads over HTTP/JSON while ingesting updates through a
// batching write queue. Readers always see the last committed answer.
// The write queue holds 256 requests; a commit merges up to 64 changes
// (never splitting a request), and a batch of only unwaited updates lingers
// up to 2ms for company while one holding a waited update commits at once.
//
// Usage:
//
//	ttcserve -addr :8080 -sf 4
//	ttcserve -data data/sf8 -replay
//	ttcserve -sf 4 -data-dir /var/lib/ttc -fsync always -snapshot-every 256
//
// With -data-dir every committed batch is written ahead to a checksummed
// log and the model state is snapshotted periodically, so a restart (or
// crash) recovers the full committed history from disk instead of
// replaying the dataset; -fsync interval fsyncs every 100ms, so a crash
// loses at most that window's commits. /healthz answers 503 until that
// recovery replay has committed. -compact-every N additionally rewrites
// sealed log segments every N commits under change-key supersession
// (add+remove pairs net out), bounding replay to the history's net effect.
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting
// requests, drains the write queue, flushes + fsyncs the WAL, writes a
// final snapshot, and exits 0.
//
// Endpoints: GET /query/q1, GET /query/q2 (the connected-components
// extension; ?engine=cc is the same), POST /update, GET /stats
// (q1Disagreements and q2Disagreements count what the background audit,
// which checks the served answers against the batch engines, found up to
// auditedSeq), GET /healthz (?probe=live). See
// internal/server for the wire format, and cmd/ttcwal for offline
// inspection of a -data-dir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		data   = flag.String("data", "", "dataset directory (from ttcgen); empty generates")
		sf     = flag.Int("sf", 1, "scale factor when generating")
		seed   = flag.Int64("seed", 2018, "generator seed when generating")
		shards = flag.Int("shards", 1, "engine shards (each served engine runs whole on one: q1 on shard 0, q2cc on shard 1 mod N, applying a commit side by side from 2 shards on; shards beyond the served lineup host nothing)")
		replay = flag.Bool("replay", false, "replay the dataset's change sets through the write queue at startup")

		dataDir   = flag.String("data-dir", "", "durability directory (write-ahead log + snapshots); empty disables persistence")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always, interval (every 100ms) or off")
		snapEvery = flag.Int("snapshot-every", 256, "write a durable snapshot every N committed batches (negative disables periodic snapshots; only meaningful with -data-dir)")
		compEvery = flag.Int("compact-every", 0, "compact sealed WAL segments by change key every N committed batches (0 disables; only meaningful with -data-dir)")
	)
	flag.Parse()
	syncPolicy, err := validateFlags(*addr, *data, *fsync, *sf, *shards, *snapEvery, *compEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		DataDir:       *data,
		ScaleFactor:   *sf,
		Seed:          *seed,
		Shards:        *shards,
		PersistDir:    *dataDir,
		Fsync:         syncPolicy,
		SnapshotEvery: *snapEvery,
		CompactEvery:  *compEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(1)
	}

	if srv.Recovered() {
		snap := srv.Snapshot()
		log.Printf("recovered committed state from %s (snapshot seq=%d; WAL tail replays in the background)",
			*dataDir, snap.Seq)
	}

	if *replay {
		switch {
		case srv.Recovered() && (!srv.Ready() || srv.Snapshot().Seq > 0):
			// The recovered history already holds committed batches (or a
			// WAL tail is still replaying); the dataset stream may be among
			// them, and replaying on top would double-apply it.
			log.Printf("-replay skipped: -data-dir already holds committed batches (seq=%d)", srv.Snapshot().Seq)
		case srv.Recovered():
			// Recovery never loads the dataset, so there is no change
			// stream to replay — refusing beats silently serving seq 0.
			fmt.Fprintln(os.Stderr, "ttcserve: -replay is unavailable after recovery from -data-dir"+
				" (the dataset change stream is not loaded); remove the durability directory to start fresh")
			srv.Close()
			os.Exit(1)
		default:
			start := time.Now()
			n := 0
			changeSets := srv.ChangeSets()
			for k := range changeSets {
				cs := &changeSets[k]
				if err := srv.Enqueue(cs.Changes, true); err != nil {
					fmt.Fprintf(os.Stderr, "ttcserve: replay change set %d: %v\n", k, err)
					srv.Close()
					os.Exit(1)
				}
				n += len(cs.Changes)
			}
			log.Printf("replayed %d change sets (%d changes) in %v",
				len(changeSets), n, time.Since(start))
		}
	}

	snap := srv.Snapshot()
	log.Printf("serving on %s (shards=%d seq=%d q1=%q q2=%q)", *addr, *shards, snap.Seq,
		snap.Results[server.EngineQ1], snap.Results[server.EngineQ2])

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("signal received; shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(1)
	}
	// Graceful shutdown: the listener is closed; drain the batcher so every
	// accepted update commits, flush + fsync the WAL, and write the final
	// snapshot so the next start replays nothing.
	srv.Close()
	if *dataDir != "" {
		log.Printf("shutdown complete: queue drained, WAL flushed, final snapshot written to %s", *dataDir)
	} else {
		log.Printf("shutdown complete: queue drained")
	}
}

// Connection timeouts bound how long a slow or idle client can hold a
// connection. readTimeout covers headers and body, so a client trickling a
// 1 MiB /update body must send at least ~35 KB/s. It stops counting once
// the body is read: net/http clears the read deadline then, so a waited
// commit is never cut off. There is deliberately no WriteTimeout: a waited
// update legitimately lasts as long as its commit.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listener's http.Server with the connection
// timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// validateFlags rejects nonsense flag combinations with exit status 2
// before any work happens, and resolves the fsync policy name.
func validateFlags(addr, data, fsync string, sf, shards, snapEvery, compEvery int) (wal.SyncPolicy, error) {
	if addr == "" {
		return 0, errors.New("-addr must not be empty")
	}
	if data == "" && sf < 1 {
		return 0, fmt.Errorf("-sf must be >= 1 (got %d)", sf)
	}
	if shards < 1 {
		return 0, fmt.Errorf("-shards must be >= 1 (got %d)", shards)
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return 0, fmt.Errorf("-fsync: %w", err)
	}
	if snapEvery == 0 {
		return 0, errors.New("-snapshot-every must be nonzero (negative disables periodic snapshots)")
	}
	if compEvery < 0 {
		return 0, fmt.Errorf("-compact-every must be >= 0 (got %d; 0 disables)", compEvery)
	}
	return policy, nil
}
