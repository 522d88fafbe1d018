package lagraph

// DSU is a disjoint-set union (union-find) structure with path halving and
// union by size. It serves two roles in this repository: the correctness
// oracle for the GraphBLAS connected-component algorithms (CCUnionFind and
// the Q2 test oracle), and the component engine of the NMF-style reference
// solution. It cannot split a component, so the incremental-CC Q2 engine,
// which also ingests removals, keeps explicit labels instead.
type DSU struct {
	parent []int
	size   []int
}

// NewDSU returns a DSU over n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), size: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// Len reports the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Add appends a new singleton element and returns its id.
func (d *DSU) Add() int {
	id := len(d.parent)
	d.parent = append(d.parent, id)
	d.size = append(d.size, 1)
	return id
}

// Find returns the representative of x's component, halving the path.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the components of a and b; it reports whether a merge
// happened (false when already connected).
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return true
}

// ComponentSize returns the size of x's component.
func (d *DSU) ComponentSize(x int) int { return d.size[d.Find(x)] }

// Labels returns a canonical labelling: each element is mapped to the
// minimum element id in its component, which makes labellings from
// different algorithms directly comparable.
func (d *DSU) Labels() []int {
	labels := make([]int, len(d.parent))
	minOf := make(map[int]int)
	for i := range d.parent {
		r := d.Find(i)
		if m, ok := minOf[r]; !ok || i < m {
			minOf[r] = i
		}
	}
	for i := range d.parent {
		labels[i] = minOf[d.Find(i)]
	}
	return labels
}

// SumSquaredComponentSizes returns Σ (component size)², the Q2 score kernel.
func (d *DSU) SumSquaredComponentSizes() int64 {
	var total int64
	for i := range d.parent {
		if d.Find(i) == i {
			s := int64(d.size[i])
			total += s * s
		}
	}
	return total
}
