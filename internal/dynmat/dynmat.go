// Package dynmat implements an updatable sparse matrix format — one sorted
// row slice per row, grown in place — standing in for the GPU-oriented
// dynamic formats the paper names as future work (faimGraph, Hornet). It
// exists for the ablation benchmark comparing update-regime costs against
// the CSR + pending-tuples representation of the grb package:
//
//   - dynmat.Matrix: SetElement is O(row degree) and immediately visible;
//     row reads never merge; no assembly step exists.
//   - grb.Matrix: SetElement appends to the pending buffer after a lookup
//     of the row (its pending entries, then a binary search); row reads
//     merge pending entries on the fly; whole-matrix kernels, and a
//     buffer past its bound, pay an O(nrows + nnz + p log p) assembly
//     (Wait).
//
// The trade-off the benchmark quantifies: under many small updates with
// frequent whole-matrix reads, assembly dominates grb.Matrix, while
// dynmat.Matrix pays more per insert but never assembles.
package dynmat

import (
	"fmt"
	"sort"
)

// Entry is one stored element of a row.
type Entry[T any] struct {
	Col int
	Val T
}

// Matrix is a row-major dynamic sparse matrix. The zero value is unusable;
// call New.
type Matrix[T any] struct {
	ncols int
	rows  [][]Entry[T]
	nvals int
}

// New returns an empty nrows×ncols dynamic matrix.
func New[T any](nrows, ncols int) *Matrix[T] {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("dynmat: negative shape %d×%d", nrows, ncols))
	}
	return &Matrix[T]{ncols: ncols, rows: make([][]Entry[T], nrows)}
}

// NRows reports the number of rows.
func (m *Matrix[T]) NRows() int { return len(m.rows) }

// NCols reports the number of columns.
func (m *Matrix[T]) NCols() int { return m.ncols }

// NVals reports the number of stored elements in O(1).
func (m *Matrix[T]) NVals() int { return m.nvals }

// SetElement stores x at (i, j), overwriting any existing element. Cost:
// O(log d + d) for row degree d (binary search + in-place insertion).
func (m *Matrix[T]) SetElement(i, j int, x T) error {
	if i < 0 || i >= len(m.rows) || j < 0 || j >= m.ncols {
		return fmt.Errorf("dynmat: SetElement (%d,%d) outside %d×%d", i, j, len(m.rows), m.ncols)
	}
	row := m.rows[i]
	p := sort.Search(len(row), func(k int) bool { return row[k].Col >= j })
	if p < len(row) && row[p].Col == j {
		row[p].Val = x
		return nil
	}
	row = append(row, Entry[T]{})
	copy(row[p+1:], row[p:])
	row[p] = Entry[T]{Col: j, Val: x}
	m.rows[i] = row
	m.nvals++
	return nil
}

// GetElement returns the element at (i, j) and whether it exists.
func (m *Matrix[T]) GetElement(i, j int) (T, bool, error) {
	var zero T
	if i < 0 || i >= len(m.rows) || j < 0 || j >= m.ncols {
		return zero, false, fmt.Errorf("dynmat: GetElement (%d,%d) outside %d×%d", i, j, len(m.rows), m.ncols)
	}
	row := m.rows[i]
	p := sort.Search(len(row), func(k int) bool { return row[k].Col >= j })
	if p < len(row) && row[p].Col == j {
		return row[p].Val, true, nil
	}
	return zero, false, nil
}

// Row returns the live, sorted row slice. Callers must not mutate it.
func (m *Matrix[T]) Row(i int) []Entry[T] { return m.rows[i] }

// ForRow calls f for every entry of row i in column order.
func (m *Matrix[T]) ForRow(i int, f func(j int, x T)) {
	for _, e := range m.rows[i] {
		f(e.Col, e.Val)
	}
}

// Iterate calls f for every stored element in row-major order until f
// returns false.
func (m *Matrix[T]) Iterate(f func(i, j int, x T) bool) {
	for i, row := range m.rows {
		for _, e := range row {
			if !f(i, e.Col, e.Val) {
				return
			}
		}
	}
}

// Resize grows or shrinks the logical shape. Shrinking drops out-of-range
// entries.
func (m *Matrix[T]) Resize(nrows, ncols int) error {
	if nrows < 0 || ncols < 0 {
		return fmt.Errorf("dynmat: Resize to negative shape %d×%d", nrows, ncols)
	}
	if nrows < len(m.rows) {
		for _, row := range m.rows[nrows:] {
			m.nvals -= len(row)
		}
		m.rows = m.rows[:nrows]
	} else {
		for len(m.rows) < nrows {
			m.rows = append(m.rows, nil)
		}
	}
	if ncols < m.ncols {
		for i, row := range m.rows {
			p := sort.Search(len(row), func(k int) bool { return row[k].Col >= ncols })
			m.nvals -= len(row) - p
			m.rows[i] = row[:p]
		}
	}
	m.ncols = ncols
	return nil
}

// RowDegrees returns the per-row entry counts (diagnostic).
func (m *Matrix[T]) RowDegrees() []int {
	deg := make([]int, len(m.rows))
	for i, row := range m.rows {
		deg[i] = len(row)
	}
	return deg
}
