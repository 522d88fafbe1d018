// Package lagraph holds the graph algorithms the engines build on the grb
// engine, in the role the LAGraph library (Mattson et al., "LAGraph: a
// community effort to collect graph algorithms built on top of the
// GraphBLAS") plays in the paper's solution: FastSV connected components
// (Zhang, Azad, Hu, "FastSV: a distributed-memory connected component
// algorithm with fast convergence"), used in step 3 of the batch Q2 query,
// the Σ (component size)² score, and a union-find (DSU) for the
// incremental Q2 engines. CCLabelProp and CCUnionFind cross-check FastSV
// and back the FastSV ablation (BenchmarkAblationCC).
package lagraph

import "fmt"

// errNotSquare reports a non-square adjacency matrix.
func errNotSquare(op string, a int, b int) error {
	return fmt.Errorf("lagraph: %s requires a square adjacency matrix, got %d×%d", op, a, b)
}
