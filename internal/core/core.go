// Package core implements the paper's primary contribution: GraphBLAS
// formulations of the two queries of the TTC 2018 Social Media case, each in
// a batch variant (full reevaluation per update, Alg. 1 and Fig. 4b top) and
// an incremental variant (Alg. 2 and Fig. 4b bottom), plus an extension
// engine realizing the paper's future-work item of incremental connected
// components for Q2.
//
// Q1 ("influential posts") scores every post with 10× its comment count
// plus the number of likes its comments received. Q2 ("influential
// comments") scores every comment with Σ (component size)² over the
// friendship subgraph induced by the users who like it. Both queries return
// the top 3 entities by (score desc, timestamp desc, id asc).
package core

import (
	"strconv"

	"repro/internal/model"
)

// Entry is one ranked query answer.
type Entry struct {
	ID        model.ID
	Score     int64
	Timestamp int64
}

// Less orders entries by descending score, then descending timestamp (newer
// submissions win ties, per the case description), then ascending id for
// total determinism.
func Less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Timestamp != b.Timestamp {
		return a.Timestamp > b.Timestamp
	}
	return a.ID < b.ID
}

// Result is a ranked answer list, best first.
type Result []Entry

// String renders the result in the contest's "id|id|id" output format.
func (r Result) String() string {
	var buf [TopK * 21]byte // a top-3 renders without a second allocation
	b := buf[:0]
	for i, e := range r {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, e.ID, 10)
	}
	return string(b)
}

// SameIDs reports whether r and o rank the same ids in the same order:
// whether they render the same String.
func (r Result) SameIDs(o Result) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].ID != o[i].ID {
			return false
		}
	}
	return true
}

// TopK is the number of ranked entities the case study reports.
const TopK = 3

// Solution is a query engine: it loads an initial snapshot once, answers
// the query, then alternately ingests one change set and answers again.
// This mirrors the TTC benchmark framework's tool contract.
type Solution interface {
	// Name identifies the engine ("GraphBLAS Batch", …).
	Name() string
	// Query identifies the computed query ("Q1" or "Q2").
	Query() string
	// Load ingests the initial snapshot (the benchmark's Load phase).
	Load(s *model.Snapshot) error
	// Initial evaluates the query on the loaded snapshot.
	Initial() (Result, error)
	// Update applies one change set and reevaluates (incremental engines
	// propagate deltas; batch engines recompute).
	Update(cs *model.ChangeSet) (Result, error)
}

// denseKeys returns the dense indices 0..n−1.
func denseKeys(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// Ranker selects the best k entries under Less, in order. It is a partial
// selection: O(n·k) with k = 3, cheaper than sorting all candidates.
type Ranker struct {
	k       int
	entries []Entry
}

// NewTopK returns a Ranker keeping the best k entries.
func NewTopK(k int) *Ranker { return &Ranker{k: k} }

// Consider offers an entry for ranking.
func (t *Ranker) Consider(e Entry) {
	pos := len(t.entries)
	for pos > 0 && Less(e, t.entries[pos-1]) {
		pos--
	}
	if pos >= t.k {
		return
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, Entry{})
	}
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = e
}

// Result returns the ranked entries.
func (t *Ranker) Result() Result {
	out := make(Result, len(t.entries))
	copy(out, t.entries)
	return out
}
