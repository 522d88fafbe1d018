package grb

import (
	"math"
	"slices"
	"sort"
)

// Matrix is a sparse matrix in CSR (compressed sparse row) form with a
// SuiteSparse-style pending-tuple buffer (GrB_Matrix). SetElement and
// RemoveElement buffer pending tuples; whole-matrix kernels assemble them
// into the CSR arrays first (Wait), while row-sparse kernels (VxM, row
// extraction) merge pending entries of only the touched rows on the fly, so
// small incremental updates never pay a full O(nnz) rebuild. The buffer
// assembles itself once it outgrows a fixed fraction of the matrix (see
// pendingFraction), so it stays bounded without any caller having to Wait.
//
// Row pointers, column indices and pending tuples are stored in 32 bits,
// as SuiteSparse:GraphBLAS 10 stores them whenever they fit: a boolean
// entry costs 5 bytes, a row 4 and a pending tuple 8. So a shape, a tuple
// count or a stored-element count beyond maxIndex (2³¹−1) is refused
// with ErrInvalidValue (a panic in NewMatrix) before anything is
// allocated.
type Matrix[T any] struct {
	nrows, ncols int
	rowPtr       []int32
	colInd       []int32
	val          []T

	// pending holds each row's pending entries sorted by column, at most
	// one per column (a newer update replaces an older one in place), so
	// row reads merge them with the CSR row in one pass.
	pending map[int32][]matEntry[T]
	npend   int
	// pendDelta is the net change the pending tuples make to the stored
	// element count, so NVals = len(colInd) + pendDelta without assembling.
	// Every CSR-building constructor leaves it 0, as does assembly.
	pendDelta int
}

// maxIndex bounds a matrix's shape, its tuple counts and its stored
// elements, so that every row pointer and column index fits an int32.
const maxIndex = math.MaxInt32

// A matrix assembles its pending tuples once there are more than
// pendingFloor of them and more than 1/pendingFraction of its rows plus
// stored entries (an assembly pass walks both). Every change since the
// previous assembly then pays for at most pendingFraction steps of the next
// one, so buffering stays amortised O(1) per change while memory and the
// per-row merges of row-sparse reads stay bounded.
const (
	pendingFraction = 8
	pendingFloor    = 64
)

type matEntry[T any] struct {
	col int32
	val T
	del bool // tombstone: a pending deletion (SuiteSparse's "zombie")
}

// checkShape refuses a negative shape or one beyond maxIndex.
func checkShape(op string, nrows, ncols int) error {
	if nrows < 0 || ncols < 0 || nrows > maxIndex || ncols > maxIndex {
		return invalidErrf("%s: shape %d×%d outside [0, %d] in either dimension", op, nrows, ncols, maxIndex)
	}
	return nil
}

// NewMatrix returns an empty nrows×ncols sparse matrix. It panics with
// ErrInvalidValue on a negative shape or one beyond 2³¹−1.
func NewMatrix[T any](nrows, ncols int) *Matrix[T] {
	Must0(checkShape("NewMatrix", nrows, ncols))
	return &Matrix[T]{nrows: nrows, ncols: ncols, rowPtr: make([]int32, nrows+1)}
}

// MatrixFromTuples builds a matrix from (row, col, value) triples
// (GrB_build). Duplicates are combined with dup in input order; nil dup
// keeps the last. It builds the CSR arrays by row buckets, as SuiteSparse
// does: a stable counting sort scatters the tuples into their rows, then
// each row is sorted by column, stably, so a cell's duplicates stay in
// input order. Cost: O(n + nrows) for n tuples, plus O(d log d) for a row
// of d tuples that does not arrive sorted by column. It allocates the CSR
// arrays, and 8 bytes per tuple of the longest such row as sort scratch,
// and nothing else that grows with n or nrows. More than 2³¹−1 tuples
// are ErrInvalidValue.
func MatrixFromTuples[T any](nrows, ncols int, rows, cols []Index, vals []T, dup func(T, T) T) (*Matrix[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, invalidErrf("MatrixFromTuples: tuple slices of unequal length %d/%d/%d",
			len(rows), len(cols), len(vals))
	}
	if len(rows) > maxIndex {
		return nil, invalidErrf("MatrixFromTuples: %d tuples overflow %d", len(rows), maxIndex)
	}
	if err := checkShape("MatrixFromTuples", nrows, ncols); err != nil {
		return nil, err
	}
	a := NewMatrix[T](nrows, ncols)
	if len(rows) == 0 {
		return a, nil
	}
	for k := range rows {
		if rows[k] < 0 || rows[k] >= nrows || cols[k] < 0 || cols[k] >= ncols {
			return nil, boundsErrf("MatrixFromTuples: entry (%d,%d) outside %d×%d",
				rows[k], cols[k], nrows, ncols)
		}
	}
	// Count each row's tuples and turn the counts into row starts.
	ptr := a.rowPtr
	for _, i := range rows {
		ptr[i]++
	}
	var start int32
	for i := 0; i < nrows; i++ {
		start, ptr[i] = start+ptr[i], start
	}
	ptr[nrows] = start
	// Scatter in input order, advancing each row's start to its end, then
	// shift the ends back into starts.
	colInd := make([]int32, len(rows))
	val := make([]T, len(rows))
	for k, i := range rows {
		p := ptr[i]
		colInd[p], val[p] = int32(cols[k]), vals[k]
		ptr[i] = p + 1
	}
	copy(ptr[1:], ptr[:nrows])
	ptr[0] = 0
	// Sort each row by column and combine its duplicates, compacting the
	// arrays in place: w is the next write position, lo the row's old start.
	var keys []uint64
	var w, lo int32
	for i := 0; i < nrows; i++ {
		hi := ptr[i+1]
		ptr[i] = w
		keys = sortRow(colInd[lo:hi], val[lo:hi], keys)
		for p := lo; p < hi; p++ {
			if p > lo && colInd[p] == colInd[w-1] { // a duplicate, next in input order
				if dup != nil {
					val[w-1] = dup(val[w-1], val[p])
				} else {
					val[w-1] = val[p]
				}
				continue
			}
			colInd[w], val[w] = colInd[p], val[p]
			w++
		}
		lo = hi
	}
	ptr[nrows] = w
	a.colInd, a.val = colInd[:w], val[:w]
	return a, nil
}

// sortRow orders one row's columns, and its values with them, by column,
// keeping equal columns in their current order. A row that arrives sorted
// costs one pass and a short one an insertion sort. A longer row packs
// each column above its position in the row into a uint64 key of keys, the
// caller's scratch, so the keys are distinct and an unstable sort puts
// them in the stable order, then gathers the values after them in place.
// It returns the scratch, grown to the row's length if it was shorter.
func sortRow[T any](cols []int32, vals []T, keys []uint64) []uint64 {
	n := len(cols)
	p := 1
	for p < n && cols[p-1] <= cols[p] {
		p++
	}
	if p >= n {
		return keys
	}
	if n <= 16 {
		for ; p < n; p++ {
			c, x := cols[p], vals[p]
			q := p
			for q > 0 && cols[q-1] > c {
				cols[q], vals[q] = cols[q-1], vals[q-1]
				q--
			}
			cols[q], vals[q] = c, x
		}
		return keys
	}
	keys = slices.Grow(keys[:0], n)[:n]
	for q, c := range cols {
		keys[q] = uint64(c)<<32 | uint64(q)
	}
	slices.Sort(keys)
	// Position q takes the value from position uint32(keys[q]). Follow each
	// permutation cycle once; a settled position's tag points at itself.
	for q := range keys {
		if int(uint32(keys[q])) == q {
			continue
		}
		x, j := vals[q], q
		for {
			k := int(uint32(keys[j]))
			keys[j] = keys[j]>>32<<32 | uint64(j)
			if k == q {
				vals[j] = x
				break
			}
			vals[j] = vals[k]
			j = k
		}
	}
	for q, k := range keys {
		cols[q] = int32(k >> 32)
	}
	return keys
}

// NRows reports the number of rows.
func (a *Matrix[T]) NRows() int { return a.nrows }

// NCols reports the number of columns.
func (a *Matrix[T]) NCols() int { return a.ncols }

// NVals reports the number of stored elements, pending updates included. It
// is O(1) and never assembles: unlike GrB_Matrix_nvals, which implies a
// wait, the count is kept exact as elements are set and removed, so
// observing a matrix leaves NPending unchanged. Call Wait explicitly to
// assemble.
func (a *Matrix[T]) NVals() int { return len(a.colInd) + a.pendDelta }

// NPending reports the number of unassembled pending tuples, at most one
// per position (diagnostic).
func (a *Matrix[T]) NPending() int { return a.npend }

// RowNValsBound bounds the entries of row i, which must be in range, in
// O(1) without assembling: its stored entries plus its pending ones, exact
// when nothing in the row is pending. It is what a caller weighs to scan a
// row or probe it.
func (a *Matrix[T]) RowNValsBound(i Index) int {
	return int(a.rowPtr[i+1]-a.rowPtr[i]) + len(a.pending[int32(i)])
}

// SetElement stores x at (i, j), overwriting any existing element. The
// update is buffered as a pending tuple and observed by all subsequent
// operations. It costs a binary search of row i's pending entries and of
// its stored entries, which keeps NVals exact, plus the insertion into the
// row's pending entries. A new element beyond 2³¹−1 stored ones is
// ErrInvalidValue.
func (a *Matrix[T]) SetElement(i, j Index, x T) error {
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return boundsErrf("SetElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	if a.NVals() >= maxIndex {
		if _, ok := a.get(i, j); !ok {
			return invalidErrf("SetElement: (%d,%d) would overflow %d stored elements", i, j, maxIndex)
		}
	}
	a.setPending(i, matEntry[T]{col: int32(j), val: x})
	return nil
}

// RemoveElement deletes the element at (i, j) if present
// (GrB_Matrix_removeElement). Like SetElement it is buffered: the deletion
// becomes a pending tombstone — SuiteSparse's "zombie" — resolved on the
// next assembly, and observed immediately by all reads.
func (a *Matrix[T]) RemoveElement(i, j Index) error {
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return boundsErrf("RemoveElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	a.setPending(i, matEntry[T]{col: int32(j), del: true})
	return nil
}

// setPending records e as row i's pending entry for its column, replacing
// an older pending entry there, keeps pendDelta exact, and assembles once
// the buffer outgrows its bound (see pendingFraction).
func (a *Matrix[T]) setPending(i Index, e matEntry[T]) {
	ents := a.pending[int32(i)]
	q := searchPending(ents, e.col)
	var had bool
	if q < len(ents) && ents[q].col == e.col {
		had = !ents[q].del
		ents[q] = e
	} else {
		_, had = a.stored(i, e.col)
		ents = append(ents, matEntry[T]{})
		copy(ents[q+1:], ents[q:])
		ents[q] = e
		if a.pending == nil {
			a.pending = make(map[int32][]matEntry[T])
		}
		a.pending[int32(i)] = ents
		a.npend++
	}
	if had {
		a.pendDelta--
	}
	if !e.del {
		a.pendDelta++
	}
	if a.npend > pendingFloor && a.npend*pendingFraction > a.nrows+len(a.colInd) {
		a.Wait()
	}
}

// searchPending returns the position of column j in a row's sorted pending
// entries, or where it would be inserted.
func searchPending[T any](ents []matEntry[T], j int32) int {
	return sort.Search(len(ents), func(k int) bool { return ents[k].col >= j })
}

// GetElement returns the value stored at (i, j) and whether one exists.
func (a *Matrix[T]) GetElement(i, j Index) (T, bool, error) {
	var zero T
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return zero, false, boundsErrf("GetElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	x, ok := a.get(i, j)
	return x, ok, nil
}

// get returns the element at the in-range position (i, j), pending
// entries included.
func (a *Matrix[T]) get(i, j Index) (T, bool) {
	// A pending entry is newer than the CSR entry it shadows.
	ents := a.pending[int32(i)]
	if q := searchPending(ents, int32(j)); q < len(ents) && ents[q].col == int32(j) {
		return ents[q].val, !ents[q].del
	}
	return a.stored(i, int32(j))
}

// stored returns the CSR (assembled) element at the in-range position
// (i, j), ignoring pending entries.
func (a *Matrix[T]) stored(i Index, j int32) (T, bool) {
	var zero T
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	if p, ok := slices.BinarySearch(a.colInd[lo:hi], j); ok {
		return a.val[lo+int32(p)], true
	}
	return zero, false
}

// Wait assembles all pending tuples into the CSR arrays (GrB_wait). It is a
// no-op when nothing is pending. Cost: O(nrows + nnz + p log p) for p
// pending tuples: rows without pending entries are copied in bulk, the
// others merged with their sorted pending entries.
func (a *Matrix[T]) Wait() {
	if a.npend == 0 {
		return
	}
	rows := make([]int32, 0, len(a.pending))
	for i := range a.pending {
		rows = append(rows, i)
	}
	slices.Sort(rows)
	newCol := make([]int32, 0, len(a.colInd)+a.pendDelta)
	newVal := make([]T, 0, len(a.val)+a.pendDelta)
	newPtr := make([]int32, a.nrows+1)
	copyRows := func(from, to int) { // rows [from, to) have nothing pending
		shift := int32(len(newCol)) - a.rowPtr[from]
		for r := from; r < to; r++ {
			newPtr[r] = a.rowPtr[r] + shift
		}
		newCol = append(newCol, a.colInd[a.rowPtr[from]:a.rowPtr[to]]...)
		newVal = append(newVal, a.val[a.rowPtr[from]:a.rowPtr[to]]...)
	}
	next := 0 // first row not yet written
	for _, i := range rows {
		copyRows(next, int(i))
		newPtr[i] = int32(len(newCol))
		a.forRow(int(i), func(j Index, x T) {
			newCol = append(newCol, int32(j))
			newVal = append(newVal, x)
		})
		next = int(i) + 1
	}
	copyRows(next, a.nrows)
	newPtr[a.nrows] = int32(len(newCol))
	a.rowPtr, a.colInd, a.val = newPtr, newCol, newVal
	a.pending = nil
	a.npend = 0
	a.pendDelta = 0
}

// forRow calls f(col, val) for every entry of row i in column order,
// merging the row's sorted pending entries in one pass without assembling.
func (a *Matrix[T]) forRow(i Index, f func(j Index, x T)) {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	pend := a.pending[int32(i)]
	if len(pend) == 0 {
		for p := lo; p < hi; p++ {
			f(Index(a.colInd[p]), a.val[p])
		}
		return
	}
	p, q := lo, 0
	for p < hi && q < len(pend) {
		switch {
		case a.colInd[p] < pend[q].col:
			f(Index(a.colInd[p]), a.val[p])
			p++
		case a.colInd[p] > pend[q].col:
			if !pend[q].del {
				f(Index(pend[q].col), pend[q].val)
			}
			q++
		default: // a pending entry overwrites the stored one; a tombstone kills it
			if !pend[q].del {
				f(Index(pend[q].col), pend[q].val)
			}
			p++
			q++
		}
	}
	for ; p < hi; p++ {
		f(Index(a.colInd[p]), a.val[p])
	}
	for ; q < len(pend); q++ {
		if !pend[q].del {
			f(Index(pend[q].col), pend[q].val)
		}
	}
}

// ForRow calls f(col, value) for every entry of row i in column order. It
// merges pending updates of that row on the fly without assembling the
// matrix — the exported face of the row-sparse access path. f must not
// modify a: a SetElement or RemoveElement may assemble it.
func (a *Matrix[T]) ForRow(i Index, f func(j Index, x T)) error {
	if i < 0 || i >= a.nrows {
		return boundsErrf("ForRow: row %d outside [0,%d)", i, a.nrows)
	}
	a.forRow(i, f)
	return nil
}

// Iterate calls f for every stored element in row-major order until f
// returns false. Pending tuples are assembled first.
func (a *Matrix[T]) Iterate(f func(i, j Index, x T) bool) {
	a.Wait()
	for i := 0; i < a.nrows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if !f(i, Index(a.colInd[p]), a.val[p]) {
				return
			}
		}
	}
}

// Resize grows the logical shape (GrB_Matrix_resize) in O(rows added),
// keeping the stored entries and pending tuples. A shape smaller in either
// dimension is ErrInvalidValue and changes nothing: the graphs built on
// this package never remove a node. So is a shape beyond 2³¹−1.
func (a *Matrix[T]) Resize(nrows, ncols int) error {
	if nrows < a.nrows || ncols < a.ncols {
		return invalidErrf("Resize: %d×%d would shrink a %d×%d matrix", nrows, ncols, a.nrows, a.ncols)
	}
	if err := checkShape("Resize", nrows, ncols); err != nil {
		return err
	}
	for i := a.nrows; i < nrows; i++ {
		a.rowPtr = append(a.rowPtr, a.rowPtr[len(a.rowPtr)-1])
	}
	a.nrows, a.ncols = nrows, ncols
	return nil
}
