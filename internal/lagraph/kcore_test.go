package lagraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grb"
)

func TestKCoreSmall(t *testing.T) {
	// Triangle {0,1,2} (2-core) with pendant chain 3-4 (1-core) and
	// isolated 5 (0-core).
	a := symmetricMatrix(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	core, err := KCore(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 2, 1, 1, 0}
	if !reflect.DeepEqual(core, want) {
		t.Fatalf("KCore = %v, want %v", core, want)
	}
}

func TestKCoreComplete(t *testing.T) {
	var edges [][2]int
	const n = 6
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	core, err := KCore(symmetricMatrix(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	for v, k := range core {
		if k != n-1 {
			t.Fatalf("core[%d] = %d in K%d, want %d", v, k, n, n-1)
		}
	}
}

// Oracle: iterative minimum-degree peeling — at level k, repeatedly delete
// every vertex whose remaining degree is ≤ k; its core number is k.
func kcoreOracle(n int, edges [][2]int) []int {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = map[int]struct{}{}
	}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		adj[e[0]][e[1]] = struct{}{}
		adj[e[1]][e[0]] = struct{}{}
	}
	core := make([]int, n)
	removed := make([]bool, n)
	remaining := n
	for k := 0; remaining > 0; k++ {
		for {
			changed := false
			for v := 0; v < n; v++ {
				if removed[v] || len(adj[v]) > k {
					continue
				}
				core[v] = k
				removed[v] = true
				remaining--
				for w := range adj[v] {
					delete(adj[w], v)
				}
				adj[v] = map[int]struct{}{}
				changed = true
			}
			if !changed {
				break
			}
		}
	}
	return core
}

func TestKCoreAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(50)
		m := rng.Intn(4 * n)
		var edges [][2]int
		seen := map[[2]int]bool{}
		for k := 0; k < m; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			if seen[[2]int{i, j}] {
				continue
			}
			seen[[2]int{i, j}] = true
			edges = append(edges, [2]int{i, j})
		}
		got, err := KCore(symmetricMatrix(n, edges))
		if err != nil {
			t.Fatal(err)
		}
		want := kcoreOracle(n, edges)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: KCore %v, oracle %v (edges %v)", trial, got, want, edges)
		}
	}
}

func TestKCoreNonSquare(t *testing.T) {
	if _, err := KCore(grb.NewMatrix[bool](2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}
