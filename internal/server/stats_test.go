package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/wal"
)

// TestStatsNeverTorn: every figure of one /stats response belongs to the
// commit its seq names. Each waited commit adds one comment nobody likes,
// which the served Q2 engine (q2cc) parks and counts, and every shard
// that hosts an engine counts every commit. So at seq k q2cc's comments
// equal the base comments plus k, updates.count is k, and the shards'
// commits sum to k times the hosting shards (one per served engine, at
// most the shard count). The audit checks only published commits, so
// auditedSeq is at most k, with no disagreement. Concurrent readers check those invariants
// on every response while the commits run.
func TestStatsNeverTorn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStatsNeverTorn(t, shards) })
	}
}

func testStatsNeverTorn(t *testing.T, shards int) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 3})
	base := len(d.Snapshot.Comments)
	hosting := min(shards, 2) // q1 and q2cc
	post := d.Snapshot.Posts[0].ID
	srv, err := New(Config{Dataset: d, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	type statsView struct {
		Seq             int                         `json:"seq"`
		AuditedSeq      int                         `json:"auditedSeq"`
		Q1Disagreements int                         `json:"q1Disagreements"`
		Q2Disagreements int                         `json:"q2Disagreements"`
		Engines         map[string]core.EngineStats `json:"engines"`
		Updates         struct {
			Count int `json:"count"`
		} `json:"updates"`
		Shards []struct {
			Commits int `json:"commits"`
		} `json:"shards"`
	}
	check := func(st statsView) string {
		if got := st.Engines[EngineQ2CC].Comments; got != base+st.Seq {
			return fmt.Sprintf("seq %d: q2cc comments %d, want %d", st.Seq, got, base+st.Seq)
		}
		if st.AuditedSeq > st.Seq || st.Q1Disagreements+st.Q2Disagreements != 0 {
			return fmt.Sprintf("seq %d: auditedSeq %d, disagreements %d and %d", st.Seq, st.AuditedSeq, st.Q1Disagreements, st.Q2Disagreements)
		}
		if st.Updates.Count != st.Seq {
			return fmt.Sprintf("seq %d: updates.count %d", st.Seq, st.Updates.Count)
		}
		commits := 0
		for _, sh := range st.Shards {
			commits += sh.Commits
		}
		if commits != st.Seq*hosting {
			return fmt.Sprintf("seq %d: shard commits sum to %d, want %d", st.Seq, commits, st.Seq*hosting)
		}
		return ""
	}
	stop := make(chan struct{})
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		reads, torn int
		firstTorn   string
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
				var st statsView
				if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
					mu.Lock()
					torn++
					firstTorn = "decode: " + err.Error()
					mu.Unlock()
					return
				}
				bad := check(st)
				mu.Lock()
				reads++
				if bad != "" {
					if torn == 0 {
						firstTorn = bad
					}
					torn++
				}
				mu.Unlock()
			}
		}()
	}

	const commits = 200
	for i := 0; i < commits; i++ {
		ch := model.Change{Kind: model.KindAddComment, Comment: model.Comment{
			ID: model.ID(9_000_000 + i), Timestamp: int64(i), ParentID: post, PostID: post,
		}}
		if err := srv.Enqueue([]model.Change{ch}, true); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("readers performed no /stats reads")
	}
	if torn > 0 {
		t.Fatalf("%d of %d /stats reads mixed figures of different commits; first: %s", torn, reads, firstTorn)
	}
	t.Logf("%d /stats reads over %d commits, none torn", reads, commits)
}

// statsKeys lists every key path of a decoded JSON document: objects
// contribute "parent.key", array elements "parent[]".
func statsKeys(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			statsKeys(p, child, out)
		}
	case []any:
		for _, child := range v {
			statsKeys(prefix+"[]", child, out)
		}
	}
}

// statsKeySet fetches /stats and returns its sorted key paths.
func statsKeySet(t *testing.T, srv *Server) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: status %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	set := map[string]bool{}
	statsKeys("", doc, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goldenStatsKeys is every key path /stats serves without persistence.
var goldenStatsKeys = []string{
	"changes",
	"auditedSeq",
	"engines", "engines.q1", "engines.q2cc",
	"initialMs",
	"inserts",
	"loadMs",
	"q1Disagreements",
	"q2Disagreements",
	"queueDepth",
	"readMs",
	"ready",
	"removals",
	"seq",
	"shards", "shards[].commits", "shards[].lastMs", "shards[].meanMs", "shards[].shard",
	"stateMs",
	"updates", "updates.count", "updates.lastMs", "updates.meanMs", "updates.totalMs",
}

// goldenPersistenceKeys is what PersistDir adds, after one compaction pass.
var goldenPersistenceKeys = []string{
	"persistence",
	"persistence.compactedBytes", "persistence.compactedSegments", "persistence.compactionErrors", "persistence.compactions",
	"persistence.cowClones",
	"persistence.dir",
	"persistence.fsync",
	"persistence.lastCompaction",
	"persistence.lastCompaction.batches", "persistence.lastCompaction.bytesIn", "persistence.lastCompaction.bytesOut",
	"persistence.lastCompaction.changesIn", "persistence.lastCompaction.changesOut",
	"persistence.lastCompaction.compactedSegments", "persistence.lastCompaction.dryRun",
	"persistence.lastCompaction.insertsIn", "persistence.lastCompaction.insertsOut",
	"persistence.lastCompaction.removalsIn", "persistence.lastCompaction.removalsOut",
	"persistence.lastCompaction.sealedSegments",
	"persistence.lastSnapshotMs", "persistence.lastSnapshotSeq", "persistence.lastSnapshotStallNs",
	"persistence.maxSnapshotStallNs",
	"persistence.recovered",
	"persistence.recovery", "persistence.recovery.ms", "persistence.recovery.replayedBatches",
	"persistence.recovery.replayedChanges", "persistence.recovery.snapshotSeq", "persistence.recovery.truncatedBytes",
	"persistence.skippedSnapshots",
	"persistence.snapshotBytes", "persistence.snapshotErrors", "persistence.snapshotInProgress", "persistence.snapshots",
	"persistence.streamedSnapshots",
	"persistence.trimmedSegments",
	"persistence.walAppends", "persistence.walBytes", "persistence.walFsyncs", "persistence.walLastSeq",
	"persistence.walRotations", "persistence.walSegments", "persistence.walSyncErrors",
}

// engineKeys are the key paths under each engines.<key> object.
var engineKeys = []string{"comments", "nnz", "pending", "posts", "users"}

func wantStatsKeys(persist bool) []string {
	want := append([]string(nil), goldenStatsKeys...)
	for _, e := range []string{EngineQ1, EngineQ2CC} {
		for _, k := range engineKeys {
			want = append(want, "engines."+e+"."+k)
		}
	}
	if persist {
		want = append(want, goldenPersistenceKeys...)
	}
	sort.Strings(want)
	return want
}

// diffKeys reports the paths only in got and only in want.
func diffKeys(got, want []string) (extra, missing []string) {
	in := func(set []string) map[string]bool {
		m := map[string]bool{}
		for _, k := range set {
			m[k] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, k := range got {
		if !w[k] {
			extra = append(extra, k)
		}
	}
	for _, k := range want {
		if !g[k] {
			missing = append(missing, k)
		}
	}
	return extra, missing
}

// TestStatsKeySet pins every JSON key path /stats serves, without and with
// persistence (after a compaction pass, so lastCompaction is present).
// perfbench's statsDoc reads loadMs, initialMs, seq, changes,
// q2Disagreements and persistence.walAppends/walBytes/walFsyncs/
// maxSnapshotStallNs; any change to this list is a change to the wire.
func TestStatsKeySet(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 5})
	u, c := d.Snapshot.Users[0].ID, d.Snapshot.Comments[0].ID
	for _, persist := range []bool{false, true} {
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			cfg := Config{Dataset: d, Shards: 2, FlushInterval: time.Millisecond}
			if persist {
				cfg.PersistDir = t.TempDir()
				cfg.Fsync = wal.SyncOff
				cfg.SnapshotEvery = -1
				cfg.segmentBytes = 1024
				cfg.CompactEvery = 4
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for i := 0; i < 16; i++ {
				kind := model.KindAddLike
				if i%2 == 1 {
					kind = model.KindRemoveLike
				}
				ch := model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
				if err := srv.Enqueue([]model.Change{ch}, true); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			got := statsKeySet(t, srv)
			if extra, missing := diffKeys(got, wantStatsKeys(persist)); len(extra)+len(missing) > 0 {
				t.Fatalf("/stats key paths changed:\n  unexpected: %s\n  missing:    %s",
					strings.Join(extra, ", "), strings.Join(missing, ", "))
			}
		})
	}
}
