package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// The HTTP API:
//
//	GET  /query/q1            Q1 top-3 from the last committed snapshot
//	                          (?engine=incremental is the same)
//	GET  /query/q2            Q2 top-3 from the CC extension (?engine=cc is
//	                          the same); any other engine is answered 400
//	POST /update              enqueue changes; {"wait":true} blocks to commit;
//	                          a body outside the schema decodeUpdate lists
//	                          (the form WireChange encodes) is answered
//	                          400, a body over 1 MiB 413
//	GET  /stats               per-phase latencies, engine sizes, queue depth,
//	                          the audit's last seq and disagreements
//	GET  /healthz             readiness: 503 + JSON reason during startup
//	                          WAL replay or after an engine failure, 200
//	                          once committed snapshots are being served;
//	                          ?probe=live answers liveness (200 while the
//	                          process serves at all)
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query/q1", s.handleQuery("Q1", EngineQ1))
	mux.HandleFunc("/query/q2", s.handleQuery("Q2", EngineQ2))
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// queryResponse is one served read: the answer plus the commit coordinates
// it is consistent with.
type queryResponse struct {
	Query  string `json:"query"`
	Engine string `json:"engine"`
	// Result is the contest's "id|id|id" answer format.
	Result string `json:"result"`
	// Seq and Changes identify the committed prefix of the update stream
	// this answer reflects: Seq batches totalling Changes changes.
	Seq     int       `json:"seq"`
	Changes int       `json:"changes"`
	AsOf    time.Time `json:"asOf"`
}

// queryBody returns the marshaled response body of the query endpoint
// whose slot in Snapshot.respCache is slot, served from the snapshot's
// epoch cache: repeated reads between commits cost zero JSON encodes and
// zero per-request allocations beyond the ResponseWriter itself.
func (snap *Snapshot) queryBody(slot int, query, engine string) []byte {
	if b := snap.respCache[slot].Load(); b != nil {
		return *b
	}
	b, err := json.Marshal(queryResponse{
		Query:   query,
		Engine:  engine,
		Result:  snap.Results[engine],
		Seq:     snap.Seq,
		Changes: snap.Changes,
		AsOf:    snap.At,
	})
	if err != nil {
		// Unreachable for this struct; keep the contract total anyway.
		b = []byte(`{"error":"encode failed"}`)
	}
	b = append(b, '\n')
	snap.respCache[slot].Store(&b)
	return b
}

func (s *Server) handleQuery(query, key string) http.HandlerFunc {
	engine, slot := key, 0
	if key == EngineQ2 {
		engine, slot = EngineQ2CC, 1 // the CC extension serves Q2
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		switch e := r.URL.Query().Get("engine"); {
		case e == "", e == "cc" && key == EngineQ2, e == "incremental" && key == EngineQ1:
			// the served engine
		default:
			httpError(w, http.StatusBadRequest, "unknown engine %q for %s", e, query)
			return
		}
		snap := s.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(snap.queryBody(slot, query, engine))
	}
}

// handleUpdate reads the body whole, decodes it in one pass
// (decodeUpdate) and enqueues its changes as one atomic request. The
// changes do not point into the body, so the acknowledgement is then
// appended over it.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUpdateBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "update body exceeds %d bytes", maxUpdateBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "bad update body: %v", err)
		return
	}
	changes, wait, err := decodeUpdate(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad update body: %v", err)
		return
	}
	if err := s.Enqueue(changes, wait); err != nil {
		switch {
		case errors.Is(err, ErrRejected):
			httpError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrClosed), errors.Is(err, ErrBroken):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendUpdateResponse(body[:0], len(changes), wait, s.Snapshot().Seq))
}

// counters are the figures the writer and the snapshot encoder keep for
// /stats, each declared once, under its wire name. Server.mu guards them;
// handleStats copies them whole, beside the Snapshot they belong to.
type counters struct {
	// Read, State, Load and Initial are the wall times of start-up's
	// steps. Read obtains the base snapshot: opening the durability
	// directory, which decodes its snapshot on recovery, and otherwise
	// reading (or generating) the dataset. State validates it
	// (model.NewState). Each served engine then loads the State and
	// initially evaluates it on its own goroutine, with no barrier
	// between engines (see shard.Start): Load is the slowest engine's
	// load, a Q2 engine's wait for the router included, and Initial the
	// slowest initial evaluation. The first audit, which checks the base
	// state, runs after both, while the server already serves, and is part
	// of none.
	Read    durationMS `json:"readMs"`
	State   durationMS `json:"stateMs"`
	Load    durationMS `json:"loadMs"`
	Initial durationMS `json:"initialMs"`
	// Updates aggregates the update+reevaluation phase of every committed
	// batch (harness.Measurement's phase breakdown) in O(1) state, so a
	// long-lived server never grows with commit count; Mean is derived
	// when served.
	Updates struct {
		Count int        `json:"count"`
		Total durationMS `json:"totalMs"`
		Last  durationMS `json:"lastMs"`
		Mean  durationMS `json:"meanMs"`
	} `json:"updates"`
	// Persist is served under "persistence", and only with a WAL.
	Persist persistCounters `json:"-"`
}

// persistCounters is the durability bookkeeping of /stats: snapshot and
// compaction outcomes and what startup recovery did.
type persistCounters struct {
	LastSnapshotMs durationMS `json:"lastSnapshotMs"`
	SnapshotErrors int        `json:"snapshotErrors"`
	// Streaming-snapshot health: how long the writer was last (and at worst
	// ever) paused on snapshot work — the O(1) view handoff or a
	// copy-on-write detach of the edge keys — and how many snapshots were
	// written (counted only on success, so it stays zero when no encode
	// ever lands), how many times a cadence point found an encode still in
	// flight and left the one pending request that the first commit after
	// that encode starts (cadence points reached while a request is
	// already pending share it), and detaches removals forced (under a
	// snapshot's view, or an audit's while it reads its view into refs).
	LastSnapshotStallNs int64 `json:"lastSnapshotStallNs"`
	MaxSnapshotStallNs  int64 `json:"maxSnapshotStallNs"`
	StreamedSnapshots   int   `json:"streamedSnapshots"`
	SkippedSnapshots    int   `json:"skippedSnapshots"`
	CowClones           int   `json:"cowClones"`
	// CompactionErrors counts failed change-key compaction passes;
	// LastCompaction is the most recent successful pass (nil until one
	// completes; each pass stores a new report, never changing an old one).
	CompactionErrors int                   `json:"compactionErrors"`
	LastCompaction   *wal.CompactionReport `json:"lastCompaction,omitempty"`

	// Recovered reports that the base state came from a durable snapshot
	// rather than the dataset; Recovery is where that snapshot was, how
	// much WAL tail was replayed, and whether a torn tail was truncated.
	Recovered bool `json:"recovered"`
	Recovery  struct {
		SnapshotSeq     int        `json:"snapshotSeq"`
		ReplayedBatches int        `json:"replayedBatches"`
		ReplayedChanges int        `json:"replayedChanges"`
		TruncatedBytes  int64      `json:"truncatedBytes"`
		Ms              durationMS `json:"ms"`
	} `json:"recovery"`
}

// statsResponse reports the serving-side view of the paper's phase
// breakdown (harness.Measurement conventions: load, initial, then one
// update+reevaluation entry per committed batch) plus engine and queue
// state. Every figure but the live ones (queue depth, readiness, WAL
// metrics and the in-flight snapshot) belongs to the commit Seq names.
type statsResponse struct {
	counters

	Seq     int `json:"seq"`
	Changes int `json:"changes"`
	// Inserts/Removals split the changes committed by this process
	// (model.ChangeSet.InsertCount/RemovalCount).
	Inserts    int                         `json:"inserts"`
	Removals   int                         `json:"removals"`
	QueueDepth int                         `json:"queueDepth"`
	Engines    map[string]core.EngineStats `json:"engines"`
	Broken     string                      `json:"broken,omitempty"`

	// AuditedSeq is the seq of the last state the runtime's audit checked
	// against the batch engines (see internal/shard), or one below the
	// base seq before the first audit; it trails Seq, and /stats does not
	// wait for it. Q1Disagreements and Q2Disagreements count the audits in
	// which the served Q1 or Q2 answer differed from the batch engine's:
	// continuous cross-validation in the spirit of ttcvalidate; anything
	// nonzero is a bug.
	AuditedSeq      int `json:"auditedSeq"`
	Q1Disagreements int `json:"q1Disagreements"`
	Q2Disagreements int `json:"q2Disagreements"`

	// Shards reports each engine shard's apply latencies; ParkedComments
	// counts the never-liked comments the router holds outside the Q2
	// engines (Q2 engine comments + parked = all comments).
	Shards         []shardStatsJSON `json:"shards"`
	ParkedComments int              `json:"parkedComments"`

	// Ready mirrors /healthz readiness; Persistence reports the durability
	// subsystem (nil when -data-dir is not configured).
	Ready       bool              `json:"ready"`
	Persistence *persistStatsJSON `json:"persistence,omitempty"`
}

// persistStatsJSON is the /stats view of internal/wal: the live log and
// snapshot metrics, as wal.Metrics names them, plus the server's
// durability counters.
type persistStatsJSON struct {
	Dir        string `json:"dir"`
	Fsync      string `json:"fsync"`
	WalLastSeq uint64 `json:"walLastSeq"`
	// SnapshotInProgress reports a background encode in flight right now.
	SnapshotInProgress bool `json:"snapshotInProgress"`

	wal.Metrics
	persistCounters
}

// shardStatsJSON is the wire form of one shard's shard.Stats.
type shardStatsJSON struct {
	Shard   int        `json:"shard"`
	Commits int        `json:"commits"`
	Last    durationMS `json:"lastMs"`
	Mean    durationMS `json:"meanMs"`
}

// durationMS renders a duration as fractional milliseconds in JSON.
type durationMS time.Duration

func (d durationMS) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%.3f", time.Duration(d).Seconds()*1e3)), nil
}

func (d *durationMS) UnmarshalJSON(b []byte) error {
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	*d = durationMS(time.Duration(ms * float64(time.Millisecond)))
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	// The writer publishes each Snapshot and counts its commit under mu, so
	// the two are read as one. The audit checks only published commits, so
	// its value read first is not past the Snapshot.
	a := s.rt.Audited()
	s.mu.Lock()
	snap := s.Snapshot()
	c := s.stats
	broken := s.brokenLocked()
	s.mu.Unlock()

	if c.Updates.Count > 0 {
		c.Updates.Mean = durationMS(time.Duration(c.Updates.Total) / time.Duration(c.Updates.Count))
	}
	resp := statsResponse{
		counters:       c,
		Seq:            snap.Seq,
		Changes:        snap.Changes,
		Inserts:        snap.Inserts,
		Removals:       snap.Removals,
		QueueDepth:     s.QueueDepth(),
		Engines:        make(map[string]core.EngineStats, len(snap.Engines)),
		Shards:         make([]shardStatsJSON, len(snap.Shards)),
		ParkedComments: snap.ParkedComments,
		Ready:          s.Ready(),

		AuditedSeq:      a.Seq,
		Q1Disagreements: a.Q1Disagreements,
		Q2Disagreements: a.Q2Disagreements,
	}
	for _, e := range snap.Engines {
		resp.Engines[e.Key] = e.EngineStats
	}
	for i, st := range snap.Shards {
		resp.Shards[i] = shardStatsJSON{Shard: i, Commits: st.Commits, Last: durationMS(st.Last), Mean: durationMS(st.Mean())}
	}
	if broken != nil {
		resp.Broken = broken.Error()
	}
	if s.wal != nil {
		resp.Persistence = &persistStatsJSON{
			Dir:                s.cfg.PersistDir,
			Fsync:              s.cfg.Fsync.String(),
			WalLastSeq:         s.wal.LastSeq(),
			SnapshotInProgress: s.snapInProgress.Load(),
			Metrics:            s.wal.Metrics(),
			persistCounters:    c.Persist,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the /healthz body for both probes.
type healthResponse struct {
	// Status is "live", "ready", "recovering" or "broken".
	Status string `json:"status"`
	// Reason explains a 503 (replay progress or the first engine error).
	Reason string `json:"reason,omitempty"`
	// Seq is the last committed batch visible to readers.
	Seq int `json:"seq"`
	// SnapshotInProgress reports an in-flight durable snapshot encode —
	// including the final one a shutting-down server drains — so
	// orchestrators can distinguish "ready and idle" from "ready but
	// snapshotting" (e.g. to delay a rolling restart rather than treat a
	// final-snapshot drain as a healthy routing target).
	SnapshotInProgress bool `json:"snapshotInProgress"`
}

// handleHealthz splits liveness from readiness. The default (readiness)
// probe answers 503 while startup WAL replay is still committing recovered
// batches — the served snapshots lag the durable history, so load
// balancers should hold traffic — and once the engines are broken; it
// answers 200 only when every recovered commit is visible. ?probe=live
// reports only that the process is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	seq := s.Snapshot().Seq
	snapping := s.snapInProgress.Load()
	if r.URL.Query().Get("probe") == "live" {
		writeJSON(w, http.StatusOK, healthResponse{Status: "live", Seq: seq, SnapshotInProgress: snapping})
		return
	}
	if err := s.brokenErr(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{
			Status: "broken", Reason: err.Error(), Seq: seq, SnapshotInProgress: snapping,
		})
		return
	}
	if !s.Ready() {
		s.mu.Lock()
		reason := fmt.Sprintf("startup replay in progress: %d/%d write-ahead-log batches committed",
			s.replayDone, s.replayTotal)
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{
			Status: "recovering", Reason: reason, Seq: seq, SnapshotInProgress: snapping,
		})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ready", Seq: seq, SnapshotInProgress: snapping})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Error strings from wrapped sentinels read fine to humans; strip the
	// internal "server: " prefixes for terseness.
	msg = strings.ReplaceAll(msg, "server: ", "")
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}
