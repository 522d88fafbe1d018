package server

import (
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// Snapshot is the immutable last-committed state readers observe: the
// top-3 answer of every warm engine after batch Seq, plus commit
// bookkeeping. A new value is published atomically per committed batch, so
// a reader never sees a mid-update result, and the (Seq, Results) pair is
// always consistent.
type Snapshot struct {
	// Seq is the number of committed batches; 0 is the initial evaluation.
	Seq int
	// Changes is the total number of committed changes across all batches
	// (carried across restarts through the durable snapshot's metadata).
	Changes int
	// Inserts and Removals split the changes this process committed —
	// including recovered WAL-tail replay, but not history already folded
	// into the recovery snapshot (the durable metadata does not retain the
	// split). They let /stats and the WAL compaction report distinguish
	// insertion volume from removal churn.
	Inserts  int
	Removals int
	// Record is the sharded runtime's view as of this commit: Results
	// maps engine key (EngineQ1, EngineQ2, EngineQ2CC) to the contest's
	// "id|id|id" answer string, and Engines and Shards are the engine
	// sizes and per-shard apply statistics /stats serves. Built by the
	// writer (engines are not safe for concurrent access) and immutable,
	// so readers never touch a live engine or the runtime.
	*shard.Record
	// At is the publication time.
	At time.Time

	// respCache holds the lazily marshaled /query response body, one slot
	// per query endpoint (q1, q2) — the epoch cache of the read hot path.
	// A published Snapshot is immutable, so the first read of each
	// endpoint between commits pays the JSON encode and every subsequent
	// read is a plain byte write; the next commit publishes a fresh
	// Snapshot, which invalidates the cache by construction (the commit
	// sequence is the epoch). Concurrent first readers may race to fill a
	// slot; they marshal identical bytes, so last-store-wins is harmless.
	respCache [2]atomic.Pointer[[]byte]
}
