package lagraph

import (
	"math/rand"
	"testing"
)

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
