package lagraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grb"
)

func TestBFSPath(t *testing.T) {
	// Directed path 0→1→2→3 plus a back edge 3→0.
	a := grb.NewMatrix[bool](5, 5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		grb.Must0(a.SetElement(e[0], e[1], true))
	}
	got, err := BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS = %v, want %v", got, want)
	}
}

func TestBFSAgainstQueueOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 80
	a := grb.NewMatrix[bool](n, n)
	adj := make([][]int, n)
	for k := 0; k < 300; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		grb.Must0(a.SetElement(i, j, true))
		adj[i] = append(adj[i], j)
	}
	got, err := BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if want[w] == -1 {
				want[w] = want[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS disagrees with queue oracle")
	}
}

func TestBFSErrors(t *testing.T) {
	if _, err := BFS(grb.NewMatrix[bool](2, 3), 0); err == nil {
		t.Fatal("non-square must error")
	}
	if _, err := BFS(grb.NewMatrix[bool](3, 3), 7); err == nil {
		t.Fatal("src out of range must error")
	}
}

func TestTriangleCount(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  int64
	}{
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 1},
		{"square", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0},
		{"k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4},
		{"two-shared-edge", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}}, 2},
		{"empty", 5, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := symmetricMatrix(tc.n, tc.edges)
			got, err := TriangleCount(a)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("TriangleCount = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestTriangleCountAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 30
	present := make([][]bool, n)
	for i := range present {
		present[i] = make([]bool, n)
	}
	var edges [][2]int
	for k := 0; k < 90; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || present[i][j] {
			continue
		}
		present[i][j], present[j][i] = true, true
		edges = append(edges, [2]int{i, j})
	}
	a := symmetricMatrix(n, edges)
	got, err := TriangleCount(a)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !present[i][j] {
				continue
			}
			for k := j + 1; k < n; k++ {
				if present[i][k] && present[j][k] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Fatalf("TriangleCount = %d, brute force = %d", got, want)
	}
}
