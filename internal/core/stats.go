package core

import "repro/internal/grb"

// This file is the introspection surface the serving layer builds on:
// size statistics of the maintained engine state.

// EngineStats sizes the state an engine maintains between updates.
type EngineStats struct {
	Posts    int `json:"posts"`
	Comments int `json:"comments"`
	Users    int `json:"users"`
	// NNZ is the total number of stored entries across the matrices the
	// engine maintains, and only those (see graph: Q1Incremental keeps
	// RootPostᵀ alone, Q2Incremental Likes, Likesᵀ and Friends), so it
	// differs between engines over the same graph. It counts pending
	// updates and is read in O(1) without assembling anything
	// (grb.Matrix.NVals). Q2IncrementalCC counts its adjacency-list edges.
	NNZ int `json:"nnz"`
	// Pending counts the updates buffered but not yet assembled into the
	// CSR structure (SuiteSparse-style pending tuples), as they stand
	// between commits: reading Stats never assembles, so this is what the
	// next whole-matrix kernel or the matrices' own bound will fold in.
	Pending int `json:"pending"`
}

// StatsReporter is implemented by engines that can report their state size.
type StatsReporter interface {
	Stats() EngineStats
}

// engineStats sizes the matrices a GraphBLAS engine keeps in O(1): NVals
// and NPending read counters and never assemble.
func (g *graph) engineStats() EngineStats {
	if g == nil {
		return EngineStats{}
	}
	st := EngineStats{Posts: g.np, Comments: g.nc, Users: g.nu}
	for _, m := range [...]*grb.Matrix[bool]{g.rootPost, g.rootPostT, g.likes, g.likesT, g.friends} {
		if m != nil { // not kept
			st.NNZ += m.NVals()
			st.Pending += m.NPending()
		}
	}
	return st
}

// Stats implements StatsReporter.
func (s *Q1Batch) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q1Incremental) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q2Batch) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q2Incremental) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter in O(1). The CC engine maintains adjacency
// lists and per-comment component labels instead of matrices; NNZ counts the
// directed friend edges and the user→comment like edges it stores, from
// counters its handlers keep; Comments counts every comment it ranks,
// the parked ones included.
func (s *Q2IncrementalCC) Stats() EngineStats {
	return EngineStats{Posts: s.np, Comments: len(s.local), Users: len(s.adj), NNZ: s.friendEdges + s.likeEdges}
}
