package lagraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/grb"
)

// symmetricMatrix builds a symmetric boolean adjacency matrix from an edge
// list over n vertices.
func symmetricMatrix(n int, edges [][2]int) *grb.Matrix[bool] {
	a := grb.NewMatrix[bool](n, n)
	for _, e := range edges {
		grb.Must0(a.SetElement(e[0], e[1], true))
		grb.Must0(a.SetElement(e[1], e[0], true))
	}
	a.Wait()
	return a
}

func dsuLabels(n int, edges [][2]int) []int {
	d := NewDSU(n)
	for _, e := range edges {
		d.Union(e[0], e[1])
	}
	return d.Labels()
}

func TestFastSVSmall(t *testing.T) {
	// Two components: {0,1,2} path and {3,4}; 5 isolated.
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}}
	a := symmetricMatrix(6, edges)
	got, err := FastSV(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 3, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FastSV = %v, want %v", got, want)
	}
}

func TestFastSVEmptyGraph(t *testing.T) {
	a := grb.NewMatrix[bool](4, 4)
	got, err := FastSV(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FastSV on empty graph = %v, want singletons", got)
	}
}

func TestFastSVZeroVertices(t *testing.T) {
	a := grb.NewMatrix[bool](0, 0)
	got, err := FastSV(a)
	if err != nil || len(got) != 0 {
		t.Fatalf("FastSV on 0 vertices = %v, %v", got, err)
	}
}

func TestFastSVNonSquare(t *testing.T) {
	if _, err := FastSV(grb.NewMatrix[bool](2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestFastSVLongPath(t *testing.T) {
	// A long path stresses convergence (label prop would need n rounds).
	const n = 500
	edges := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	a := symmetricMatrix(n, edges)
	got, err := FastSV(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got {
		if l != 0 {
			t.Fatalf("vertex %d label = %d, want 0", i, l)
		}
	}
}

func TestCCLabelPropSmall(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}}
	a := symmetricMatrix(6, edges)
	got, err := CCLabelProp(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dsuLabels(6, edges)) {
		t.Fatalf("CCLabelProp = %v", got)
	}
}

func TestCCUnionFindSmall(t *testing.T) {
	edges := [][2]int{{0, 1}, {2, 3}, {1, 3}}
	a := symmetricMatrix(5, edges)
	got, err := CCUnionFind(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dsuLabels(5, edges)) {
		t.Fatalf("CCUnionFind = %v", got)
	}
}

// Property: all three CC algorithms agree with the DSU oracle on random
// graphs of varying density, FastSV also when one workspace serves every
// graph, larger and smaller ones in turn, with some pending tuples left
// unassembled; Σ size² in that workspace matches the DSU's.
func TestPropCCAlgorithmsAgree(t *testing.T) {
	var ws CCWorkspace
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		m := int(mRaw % 120)
		edges := make([][2]int, 0, m)
		for k := 0; k < m; k++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		a := symmetricMatrix(n, edges)
		want := dsuLabels(n, edges)
		fsv, err := FastSV(a)
		if err != nil || !reflect.DeepEqual(fsv, want) {
			return false
		}
		if len(edges) > 0 && rng.Intn(2) == 0 {
			e := edges[rng.Intn(len(edges))] // already present: pending, same graph
			grb.Must0(a.SetElement(e[0], e[1], true))
		}
		reused, err := ws.FastSV(a)
		if err != nil || !reflect.DeepEqual(reused, want) {
			return false
		}
		d := NewDSU(n)
		for _, e := range edges {
			d.Union(e[0], e[1])
		}
		if ws.SumSquaredComponentSizes(reused) != d.SumSquaredComponentSizes() {
			return false
		}
		lp, err := CCLabelProp(a)
		if err != nil || !reflect.DeepEqual(lp, want) {
			return false
		}
		uf, err := CCUnionFind(a)
		if err != nil || !reflect.DeepEqual(uf, want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSumSquaredComponentSizes(t *testing.T) {
	var ws CCWorkspace
	// Components of sizes 1 and 2 → 1² + 2² = 5, the Fig. 3a example.
	if got := ws.SumSquaredComponentSizes([]int{0, 1, 1}); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
	// Single component of 4 → 16, the Fig. 3b example.
	if got := ws.SumSquaredComponentSizes([]int{7, 7, 7, 7}); got != 16 {
		t.Fatalf("got %d, want 16", got)
	}
	if got := ws.SumSquaredComponentSizes(nil); got != 0 {
		t.Fatalf("empty = %d, want 0", got)
	}
}

func TestDSUBasics(t *testing.T) {
	d := NewDSU(5)
	if got := d.Labels(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("Labels = %v, want singletons", got)
	}
	if !d.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if d.Union(1, 0) {
		t.Fatal("repeat union must not merge")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if got := d.Labels(); !reflect.DeepEqual(got, []int{0, 0, 0, 0, 4}) {
		t.Fatalf("Labels = %v, want {0,1,2,3} and {4}", got)
	}
	if d.ComponentSize(3) != 4 {
		t.Fatalf("ComponentSize = %d, want 4", d.ComponentSize(3))
	}
	if got := d.SumSquaredComponentSizes(); got != 17 { // 4² + 1²
		t.Fatalf("Σs² = %d, want 17", got)
	}
}

func TestDSUAdd(t *testing.T) {
	d := NewDSU(2)
	id := d.Add()
	if id != 2 || d.Len() != 3 || d.ComponentSize(id) != 1 {
		t.Fatalf("Add: id=%d len=%d size=%d", id, d.Len(), d.ComponentSize(id))
	}
	d.Union(id, 0)
	if d.Find(2) != d.Find(0) {
		t.Fatal("added element cannot union")
	}
}
