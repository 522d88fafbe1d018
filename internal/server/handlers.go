package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grb"
	"repro/internal/model"
	"repro/internal/wal"
)

// The HTTP API:
//
//	GET  /query/q1            Q1 top-3 from the last committed snapshot
//	GET  /query/q2            Q2 top-3 (?engine=cc serves the CC extension)
//	POST /update              enqueue changes; {"wait":true} blocks to commit;
//	                          a body over 1 MiB is answered 413
//	GET  /stats               per-phase latencies, engine sizes, queue depth
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

// engineCacheIdx maps an engine key to its slot in Snapshot.respCache, or
// -1 for a key without a slot — a future engine added to the routes but
// not here must bypass the cache, never silently share another engine's
// slot (and serve its cached body).
func engineCacheIdx(engine string) int {
	switch engine {
	case EngineQ1:
		return 0
	case EngineQ2:
		return 1
	case EngineQ2CC:
		return 2
	default:
		return -1
	}
}

// queryBody returns the marshaled response body for one query endpoint,
// served from the snapshot's epoch cache: repeated reads between commits
// cost zero JSON encodes and zero per-request allocations beyond the
// ResponseWriter itself.
func (snap *Snapshot) queryBody(query, engine string) []byte {
	idx := engineCacheIdx(engine)
	if idx >= 0 {
		if b := snap.respCache[idx].Load(); b != nil {
			return *b
		}
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
	if idx >= 0 {
		snap.respCache[idx].Store(&b)
	}
	return b
}

func (s *Server) handleQuery(query, key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		engine := key
		if e := r.URL.Query().Get("engine"); e != "" {
			switch {
			case key == EngineQ2 && e == "cc":
				engine = EngineQ2CC
			case e == "incremental":
				// the default; accepted for symmetry
			default:
				httpError(w, http.StatusBadRequest, "unknown engine %q for %s", e, query)
				return
			}
		}
		snap := s.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(snap.queryBody(query, engine))
	}
}

// wireChange is the JSON encoding of one model.Change. Kind selects which
// field group must be present.
type wireChange struct {
	Kind       string          `json:"kind"`
	Post       *wirePost       `json:"post,omitempty"`
	Comment    *wireComment    `json:"comment,omitempty"`
	User       *wireUser       `json:"user,omitempty"`
	Friendship *wireFriendship `json:"friendship,omitempty"`
	Like       *wireLike       `json:"like,omitempty"`
}

type wirePost struct {
	ID        model.ID `json:"id"`
	Timestamp int64    `json:"timestamp"`
}

type wireComment struct {
	ID        model.ID `json:"id"`
	Timestamp int64    `json:"timestamp"`
	Parent    model.ID `json:"parent"`
	Post      model.ID `json:"post"`
}

type wireUser struct {
	ID model.ID `json:"id"`
}

type wireFriendship struct {
	User1 model.ID `json:"user1"`
	User2 model.ID `json:"user2"`
}

type wireLike struct {
	User    model.ID `json:"user"`
	Comment model.ID `json:"comment"`
}

func (c *wireChange) toModel() (model.Change, error) {
	need := func(field string, ok bool) error {
		if !ok {
			return fmt.Errorf("kind %q requires the %q field", c.Kind, field)
		}
		return nil
	}
	switch c.Kind {
	case "add-post":
		if err := need("post", c.Post != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddPost,
			Post: model.Post{ID: c.Post.ID, Timestamp: c.Post.Timestamp}}, nil
	case "add-comment":
		if err := need("comment", c.Comment != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddComment,
			Comment: model.Comment{ID: c.Comment.ID, Timestamp: c.Comment.Timestamp,
				ParentID: c.Comment.Parent, PostID: c.Comment.Post}}, nil
	case "add-user":
		if err := need("user", c.User != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddUser, User: model.User{ID: c.User.ID}}, nil
	case "add-friendship", "remove-friendship":
		if err := need("friendship", c.Friendship != nil); err != nil {
			return model.Change{}, err
		}
		kind := model.KindAddFriendship
		if c.Kind == "remove-friendship" {
			kind = model.KindRemoveFriendship
		}
		return model.Change{Kind: kind,
			Friendship: model.Friendship{User1: c.Friendship.User1, User2: c.Friendship.User2}}, nil
	case "add-like", "remove-like":
		if err := need("like", c.Like != nil); err != nil {
			return model.Change{}, err
		}
		kind := model.KindAddLike
		if c.Kind == "remove-like" {
			kind = model.KindRemoveLike
		}
		return model.Change{Kind: kind,
			Like: model.Like{UserID: c.Like.User, CommentID: c.Like.Comment}}, nil
	default:
		return model.Change{}, fmt.Errorf("unknown change kind %q", c.Kind)
	}
}

// WireChange converts a model.Change to its JSON encoding — the inverse of
// the /update request format, for clients replaying model change streams.
func WireChange(ch model.Change) any {
	w := wireChange{}
	switch ch.Kind {
	case model.KindAddPost:
		w.Kind = "add-post"
		w.Post = &wirePost{ID: ch.Post.ID, Timestamp: ch.Post.Timestamp}
	case model.KindAddComment:
		w.Kind = "add-comment"
		w.Comment = &wireComment{ID: ch.Comment.ID, Timestamp: ch.Comment.Timestamp,
			Parent: ch.Comment.ParentID, Post: ch.Comment.PostID}
	case model.KindAddUser:
		w.Kind = "add-user"
		w.User = &wireUser{ID: ch.User.ID}
	case model.KindAddFriendship, model.KindRemoveFriendship:
		w.Kind = "add-friendship"
		if ch.Kind == model.KindRemoveFriendship {
			w.Kind = "remove-friendship"
		}
		w.Friendship = &wireFriendship{User1: ch.Friendship.User1, User2: ch.Friendship.User2}
	case model.KindAddLike, model.KindRemoveLike:
		w.Kind = "add-like"
		if ch.Kind == model.KindRemoveLike {
			w.Kind = "remove-like"
		}
		w.Like = &wireLike{User: ch.Like.UserID, Comment: ch.Like.CommentID}
	}
	return w
}

// maxUpdateBytes caps an /update body (on the order of ten thousand
// changes): a request is never split, so an unbounded body would be an
// unbounded commit. A larger body is answered 413 and nothing is enqueued.
const maxUpdateBytes = 1 << 20

// updateRequest is the /update body: one or more changes committed
// atomically as a unit. Wait=true blocks the response until the batch
// containing the request has been committed and is visible to readers.
type updateRequest struct {
	Changes []wireChange `json:"changes"`
	Wait    bool         `json:"wait"`
}

type updateResponse struct {
	Queued    int  `json:"queued"`
	Committed bool `json:"committed"`
	// Seq is the last committed batch at response time; with wait=true the
	// request's changes are included in it.
	Seq int `json:"seq"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "update body exceeds %d bytes", maxUpdateBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "bad update body: %v", err)
		return
	}
	if len(req.Changes) == 0 {
		httpError(w, http.StatusBadRequest, "no changes")
		return
	}
	changes := make([]model.Change, len(req.Changes))
	for i := range req.Changes {
		ch, err := req.Changes[i].toModel()
		if err != nil {
			httpError(w, http.StatusBadRequest, "change %d: %v", i, err)
			return
		}
		changes[i] = ch
	}
	if err := s.Enqueue(changes, req.Wait); err != nil {
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
	writeJSON(w, http.StatusOK, updateResponse{
		Queued:    len(changes),
		Committed: req.Wait,
		Seq:       s.Snapshot().Seq,
	})
}

// counters are the figures the writer and the snapshot encoder keep for
// /stats, each declared once, under its wire name. Server.mu guards them;
// handleStats copies them whole, beside the Snapshot they belong to.
type counters struct {
	// Load and Initial are the wall times of the engines' start-up phases:
	// every engine instance loads its partition, and then initially
	// evaluates it, on its own goroutine (see shard.New). Validation of the
	// base state runs alongside and is not part of either.
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
	// Q2Disagreements counts commits where the Q2 matrix engine and the
	// connected-components extension disagreed — continuous cross-
	// validation in the spirit of ttcvalidate; anything nonzero is a bug.
	Q2Disagreements int `json:"q2Disagreements"`

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
	// copy-on-write detach of the edge arrays — and how many snapshots were
	// written (counted only on success, so it stays zero when no encode
	// ever lands), cadence points were skipped because an encode was still
	// in flight, and detaches removals forced.
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
// state. Every figure but the live ones (queue depth, threads, readiness,
// WAL metrics and the in-flight snapshot) belongs to the commit Seq names.
type statsResponse struct {
	counters

	Seq     int `json:"seq"`
	Changes int `json:"changes"`
	// Inserts/Removals split the changes committed by this process
	// (model.ChangeSet.InsertCount/RemovalCount).
	Inserts    int                         `json:"inserts"`
	Removals   int                         `json:"removals"`
	QueueDepth int                         `json:"queueDepth"`
	Threads    int                         `json:"threads"`
	Engines    map[string]core.EngineStats `json:"engines"`
	Broken     string                      `json:"broken,omitempty"`

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
// snapshot metrics plus the server's durability counters.
type persistStatsJSON struct {
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`

	WalAppends    int64  `json:"walAppends"`
	WalBytes      int64  `json:"walBytes"`
	WalFsyncs     int64  `json:"walFsyncs"`
	WalRotations  int64  `json:"walRotations"`
	WalSegments   int    `json:"walSegments"`
	WalLastSeq    uint64 `json:"walLastSeq"`
	WalSyncErrors int64  `json:"walSyncErrors"`

	Snapshots       int64  `json:"snapshots"`
	SnapshotBytes   int64  `json:"snapshotBytes"`
	LastSnapshotSeq uint64 `json:"lastSnapshotSeq"`
	TrimmedSegments int64  `json:"trimmedSegments"`
	// SnapshotInProgress reports a background encode in flight right now.
	SnapshotInProgress bool `json:"snapshotInProgress"`

	// Change-key compaction of sealed WAL segments (ttcserve
	// -compact-every; see internal/wal).
	Compactions    int64 `json:"compactions"`
	CompactedSegs  int64 `json:"compactedSegments"`
	CompactedBytes int64 `json:"compactedBytes"`

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
	// the two are read as one.
	s.mu.Lock()
	snap := s.Snapshot()
	c := s.stats
	broken := s.broken
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
		Threads:        grb.Threads(),
		Engines:        snap.Engines,
		Shards:         make([]shardStatsJSON, len(snap.Shards)),
		ParkedComments: snap.ParkedComments,
		Ready:          s.Ready(),
	}
	for i, st := range snap.Shards {
		resp.Shards[i] = shardStatsJSON{Shard: i, Commits: st.Commits, Last: durationMS(st.Last), Mean: durationMS(st.Mean())}
	}
	if broken != nil {
		resp.Broken = broken.Error()
	}
	if s.wal != nil {
		wm := s.wal.Metrics()
		resp.Persistence = &persistStatsJSON{
			Dir:                s.cfg.PersistDir,
			Fsync:              s.cfg.Fsync.String(),
			WalAppends:         wm.Appends,
			WalBytes:           wm.AppendedBytes,
			WalFsyncs:          wm.Fsyncs,
			WalRotations:       wm.Rotations,
			WalSegments:        wm.Segments,
			WalLastSeq:         s.wal.LastSeq(),
			WalSyncErrors:      wm.SyncErrors,
			Snapshots:          wm.Snapshots,
			SnapshotBytes:      wm.SnapshotBytes,
			LastSnapshotSeq:    wm.LastSnapSeq,
			TrimmedSegments:    wm.TrimmedSegs,
			SnapshotInProgress: s.snapInProgress.Load(),
			Compactions:        wm.Compactions,
			CompactedSegs:      wm.CompactedSegs,
			CompactedBytes:     wm.CompactedBytes,
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
