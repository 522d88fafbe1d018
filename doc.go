// Package repro reproduces "An incremental GraphBLAS solution for the 2018
// TTC Social Media case study" (Elekes & Szárnyas) in pure Go: a GraphBLAS
// engine (internal/grb), LAGraph-style connected components
// (internal/lagraph), the Social Media case model and synthetic data
// generator (internal/model, internal/datagen), the paper's batch and
// incremental query engines (internal/core), the NMF-style reference
// baseline (internal/nmf), the TTC benchmark harness (internal/harness),
// and the serving subsystem (internal/server, cmd/ttcserve). See README.md
// for the module layout, binaries and design notes.
//
// The root package holds the benchmark suite (bench_test.go) regenerating
// every table and figure of the paper's evaluation.
package repro
