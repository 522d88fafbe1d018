package grb

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// sparseSpec is a quick-generatable description of a sparse object: a logical
// size and a list of raw (index, value) pairs that are reduced modulo the
// size. It sidesteps quick's inability to respect index invariants directly.
type sparseSpec struct {
	Pairs []struct {
		I Index
		V int16
	}
}

func (s sparseSpec) vector(n int) *Vector[int] {
	v := NewVector[int](n)
	for _, p := range s.Pairs {
		i := p.I % n
		if i < 0 {
			i += n
		}
		Must0(v.SetElement(i, int(p.V)))
	}
	return v
}

func (s sparseSpec) matrix(nr, nc int) *Matrix[int] {
	a := NewMatrix[int](nr, nc)
	for k, p := range s.Pairs {
		i := p.I % nr
		if i < 0 {
			i += nr
		}
		j := (p.I / 7 * 31) % nc
		if j < 0 {
			j += nc
		}
		j = (j + k) % nc
		Must0(a.SetElement(i, j, int(p.V)))
	}
	a.Wait()
	return a
}

func vecToMap(v *Vector[int]) map[Index]int {
	m := map[Index]int{}
	v.Iterate(func(i Index, x int) bool {
		m[i] = x
		return true
	})
	return m
}

func matToMap(a *Matrix[int]) map[[2]Index]int {
	m := map[[2]Index]int{}
	a.Iterate(func(i, j Index, x int) bool {
		m[[2]Index{i, j}] = x
		return true
	})
	return m
}

// Property: build → ExtractTuples → build is the identity.
func TestPropVectorTupleRoundTrip(t *testing.T) {
	f := func(s sparseSpec) bool {
		const n = 64
		v := s.vector(n)
		ind, val := v.ExtractTuples()
		w, err := VectorFromTuples(n, ind, val, nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(vecToMap(v), vecToMap(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: eWiseAdd over vectors equals the union of the map views.
func TestPropEWiseAddVOracle(t *testing.T) {
	f := func(s1, s2 sparseSpec) bool {
		const n = 48
		u, v := s1.vector(n), s2.vector(n)
		w, err := EWiseAddV(Plus[int], u, v)
		if err != nil {
			return false
		}
		want := vecToMap(u)
		for i, x := range vecToMap(v) {
			if y, ok := want[i]; ok {
				want[i] = x + y
			} else {
				want[i] = x
			}
		}
		return reflect.DeepEqual(want, vecToMap(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MxV equals the naive dense product over the map view.
func TestPropMxVOracle(t *testing.T) {
	f := func(sm, sv sparseSpec) bool {
		const nr, nc = 24, 16
		a := sm.matrix(nr, nc)
		u := sv.vector(nc)
		w, err := MxV(plusTimes[int](), a, u)
		if err != nil {
			return false
		}
		mu := vecToMap(u)
		want := map[Index]int{}
		hit := map[Index]bool{}
		for ij, x := range matToMap(a) {
			if y, ok := mu[ij[1]]; ok {
				want[ij[0]] += x * y
				hit[ij[0]] = true
			}
		}
		got := vecToMap(w)
		if len(got) != len(hit) {
			return false
		}
		for i := range hit {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MxVFull equals the naive dense product over the map view, the
// identity on empty rows, with or without pending overwrites and
// tombstones on top of the assembled entries, and leaves them pending.
func TestPropMxVFullOracle(t *testing.T) {
	f := func(sm sparseSpec, u [16]int8, pend []uint16) bool {
		const nr, nc = 24, 16
		a := sm.matrix(nr, nc)
		m := matToMap(a)
		for _, p := range pend {
			i, j := Index(p>>8)%nr, Index(p)%nc
			if p&1 == 0 {
				Must0(a.RemoveElement(i, j))
				delete(m, [2]Index{i, j})
			} else {
				Must0(a.SetElement(i, j, int(p>>4)))
				m[[2]Index{i, j}] = int(p >> 4)
			}
		}
		full := make([]int, nc)
		for j := range full {
			full[j] = int(u[j])
		}
		want := make([]int, nr)
		for ij, x := range m {
			want[ij[0]] += x * full[ij[1]]
		}
		npend := a.NPending()
		w := make([]int, nr)
		if err := MxVFull(plusTimes[int](), a, full, w); err != nil {
			return false
		}
		return reflect.DeepEqual(w, want) && a.NPending() == npend &&
			errors.Is(MxVFull(plusTimes[int](), a, full[1:], w), ErrDimensionMismatch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: VxM(u, A) ≡ MxV(Aᵀ, u) for the plus-times semiring.
func TestPropVxMTransposeEquivalence(t *testing.T) {
	f := func(sm, sv sparseSpec) bool {
		const nr, nc = 20, 28
		a := sm.matrix(nr, nc)
		u := sv.vector(nr)
		w1, err := VxM(plusTimes[int](), u, a)
		if err != nil {
			return false
		}
		w2, err := MxV(plusTimes[int](), transposeOf(a), u)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(vecToMap(w1), vecToMap(w2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)·C = A·(B·C) over plus-times.
func TestPropMxMAssociativity(t *testing.T) {
	f := func(s1, s2, s3 sparseSpec) bool {
		a := s1.matrix(8, 9)
		b := s2.matrix(9, 10)
		c := s3.matrix(10, 7)
		ab, err := MxM(plusTimes[int](), a, b)
		if err != nil {
			return false
		}
		left, err := MxM(plusTimes[int](), ab, c)
		if err != nil {
			return false
		}
		bc, err := MxM(plusTimes[int](), b, c)
		if err != nil {
			return false
		}
		right, err := MxM(plusTimes[int](), a, bc)
		if err != nil {
			return false
		}
		// Compare as dense values: explicit zeros may differ structurally
		// (a stored 0 from cancellation), so compare value maps where
		// missing = 0.
		lm, rm := matToMap(left), matToMap(right)
		for k, v := range lm {
			if rm[k] != v {
				return false
			}
		}
		for k, v := range rm {
			if lm[k] != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: reduceRows ≡ summing the extracted tuples per row.
func TestPropReduceRowsOracle(t *testing.T) {
	f := func(s sparseSpec) bool {
		a := s.matrix(19, 13)
		w, err := ReduceRows(PlusMonoid[int](), Ident[int], a)
		if err != nil {
			return false
		}
		want := map[Index]int{}
		for ij, x := range matToMap(a) {
			want[ij[0]] += x
		}
		got := vecToMap(w)
		if len(got) != len(want) {
			return false
		}
		for i, x := range want {
			if got[i] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mask and complement partition a vector.
func TestPropMaskPartition(t *testing.T) {
	f := func(s1, s2 sparseSpec) bool {
		const n = 40
		u, m := s1.vector(n), s2.vector(n)
		in, err := MaskV(u, m, false)
		if err != nil {
			return false
		}
		out, err := MaskV(u, m, true)
		if err != nil {
			return false
		}
		if in.NVals()+out.NVals() != u.NVals() {
			return false
		}
		back, err := EWiseAddV(Plus[int], in, out)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(vecToMap(u), vecToMap(back))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pending-tuple assembly is equivalent to an eager build with
// last-wins duplicates, regardless of interleaved Waits.
func TestPropPendingAssemblyEquivalence(t *testing.T) {
	f := func(seed int64, waits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		lazy := NewMatrix[int](n, n)
		want := map[[2]Index]int{}
		for k := 0; k < 300; k++ {
			i, j, x := rng.Intn(n), rng.Intn(n), rng.Intn(100)
			Must0(lazy.SetElement(i, j, x))
			want[[2]Index{i, j}] = x
			if waits > 0 && k%(int(waits)+1) == 0 {
				lazy.Wait()
			}
		}
		return reflect.DeepEqual(want, matToMap(lazy))
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: select keeps exactly the predicate-satisfying subset, and
// select(p) ∪ select(¬p) = original.
func TestPropSelectPartition(t *testing.T) {
	f := func(s sparseSpec, threshold int16) bool {
		a := s.matrix(15, 15)
		p := func(_, _ Index, v int) bool { return v >= int(threshold) }
		yes := SelectM(p, a)
		no := SelectM(func(i, j Index, v int) bool { return !p(i, j, v) }, a)
		if yes.NVals()+no.NVals() != a.NVals() {
			return false
		}
		both := matToMap(yes)
		for k, v := range matToMap(no) {
			both[k] = v
		}
		return reflect.DeepEqual(matToMap(a), both)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pendingOp is one step of a mixed pending-tuple workload.
type pendingOp struct {
	kind pendingOpKind
	i, j Index // position (SetElement, RemoveElement) or rows and columns added (Resize)
	x    int
}

type pendingOpKind uint8

const (
	opSet pendingOpKind = iota
	opRemove
	opWait
	opResize
)

// checkPendingOps runs ops on a matrix and a map oracle side by side. After
// every step NVals must equal the oracle's size without changing NPending,
// reads and ExtractSubmatrix must see the oracle's values (one position
// table serving every extraction, the rejected ones included), and the pending
// buffer must respect its bound; at the end the assembled contents must
// equal the oracle.
func checkPendingOps(t *testing.T, nr, nc int, ops []pendingOp) {
	t.Helper()
	a := NewMatrix[int](nr, nc)
	oracle := map[[2]Index]int{}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	x := newExtractScratch()
	for k, op := range ops {
		switch op.kind {
		case opSet:
			i, j := op.i%a.NRows(), op.j%a.NCols()
			Must0(a.SetElement(i, j, op.x))
			oracle[[2]Index{i, j}] = op.x
		case opRemove:
			i, j := op.i%a.NRows(), op.j%a.NCols()
			Must0(a.RemoveElement(i, j))
			delete(oracle, [2]Index{i, j})
		case opWait:
			a.Wait()
			if a.NPending() != 0 {
				t.Fatalf("step %d: Wait left %d pending tuples", k, a.NPending())
			}
		case opResize:
			Must0(a.Resize(a.NRows()+op.i, a.NCols()+op.j))
		}
		pend := a.NPending()
		if got := a.NVals(); got != len(oracle) {
			t.Fatalf("step %d (%+v): NVals = %d, oracle holds %d", k, op, got, len(oracle))
		}
		if a.NPending() != pend {
			t.Fatalf("step %d: NVals changed NPending %d -> %d", k, pend, a.NPending())
		}
		if pend > pendingFloor && pend*pendingFraction > a.nrows+len(a.colInd) {
			t.Fatalf("step %d: %d pending tuples exceed the bound for %d rows and %d stored entries",
				k, pend, a.nrows, len(a.colInd))
		}
		if op.kind == opSet || op.kind == opRemove {
			i, j := op.i%a.NRows(), op.j%a.NCols()
			x, ok, _ := a.GetElement(i, j)
			wx, wok := oracle[[2]Index{i, j}]
			if ok != wok || x != wx {
				t.Fatalf("step %d: GetElement(%d,%d) = %d,%v; oracle %d,%v", k, i, j, x, ok, wx, wok)
			}
		}
		checkExtract(t, k, a, oracle, rng, x)
	}
	if got := matToMap(a); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("assembled contents %v, oracle %v", got, oracle)
	}
	if a.NVals() != len(oracle) || a.NPending() != 0 {
		t.Fatalf("after assembly: NVals %d (oracle %d), NPending %d", a.NVals(), len(oracle), a.NPending())
	}
}

// extractScratch is the output matrix and position table that every
// ExtractSubmatrix call of one test shares, as a Q2 worker shares its own
// across comments, plus counts of the row paths the calls took.
type extractScratch struct {
	c   *Matrix[int]
	pos []int32

	probed        int // rows longer than J, probed at J's columns
	probedPending int // ... that carried pending tuples
	walkedPending int // ... of which J was ascending, so the row was walked
	scannedPend   int // rows scanned through their pending tuples
}

func newExtractScratch() *extractScratch { return &extractScratch{c: NewMatrix[int](0, 0)} }

// extract runs ExtractSubmatrix in the shared scratch and fails the test
// unless the position table comes back all zero, error or not.
func (x *extractScratch) extract(t *testing.T, a *Matrix[int], I, J []Index) (*Matrix[int], error) {
	t.Helper()
	if len(x.pos) < a.NCols() {
		x.pos = make([]int32, a.NCols())
	}
	err := ExtractSubmatrix(x.c, a, I, J, x.pos)
	for j, p := range x.pos {
		if p != 0 {
			t.Fatalf("ExtractSubmatrix(%v, %v) (err %v) left pos[%d] = %d", I, J, err, j, p)
		}
	}
	return x.c, err
}

// checkExtract compares ExtractSubmatrix over random index lists with the
// map oracle. I and J are random subsets of the rows and columns in random
// order, each sorted half of the time, so rows both longer and shorter than
// J (the probe and the scan path) meet pending overwrites and tombstones
// under both the map and the sorted-list validation. Every call, the
// failing ones included, shares x's output matrix and position table.
// Extraction must not assemble a, its output must be valid CSR, and
// duplicate or out-of-range indices, a short position table and an output
// aliasing a must still be rejected, sorted lists included.
func checkExtract(t *testing.T, step int, a *Matrix[int], oracle map[[2]Index]int, rng *rand.Rand, x *extractScratch) {
	t.Helper()
	I := rng.Perm(a.NRows())[:rng.Intn(a.NRows()+1)]
	J := rng.Perm(a.NCols())[:rng.Intn(a.NCols()+1)]
	if rng.Intn(2) == 0 {
		sort.Ints(I)
	}
	if rng.Intn(2) == 0 {
		sort.Ints(J)
	}
	for _, i := range I {
		pend := len(a.pending[int32(i)])
		switch {
		case a.RowNValsBound(i) > len(J):
			x.probed++
			if pend > 0 {
				x.probedPending++
				if sort.IntsAreSorted(J) {
					x.walkedPending++
				}
			}
		case pend > 0:
			x.scannedPend++
		}
	}
	pend := a.NPending()
	c, err := x.extract(t, a, I, J)
	if err != nil {
		t.Fatalf("step %d: ExtractSubmatrix(%v, %v): %v", step, I, J, err)
	}
	if a.NPending() != pend {
		t.Fatalf("step %d: ExtractSubmatrix changed NPending %d -> %d", step, pend, a.NPending())
	}
	if !csrSorted(c) {
		t.Fatalf("step %d: ExtractSubmatrix(%v, %v) rows not sorted by column: %v", step, I, J, c.colInd)
	}
	want := map[[2]Index]int{}
	for r, i := range I {
		for p, j := range J {
			if x, ok := oracle[[2]Index{i, j}]; ok {
				want[[2]Index{r, p}] = x
			}
		}
	}
	if got := matToMap(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: ExtractSubmatrix(%v, %v) = %v, oracle %v", step, I, J, got, want)
	}
	with := func(idx []Index, x Index) []Index { return append(idx[:len(idx):len(idx)], x) }
	if len(I) > 0 {
		if _, err := x.extract(t, a, with(I, I[0]), J); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("step %d: duplicate row %d: %v", step, I[0], err)
		}
	}
	if len(J) > 0 {
		if _, err := x.extract(t, a, I, with(J, J[len(J)-1])); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("step %d: duplicate column %d: %v", step, J[len(J)-1], err)
		}
		if _, err := x.extract(t, a, I, append(with(J, J[0]), a.NCols())); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("step %d: duplicate column %d before an out-of-range one: %v", step, J[0], err)
		}
	}
	if _, err := x.extract(t, a, with(I, a.NRows()), J); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("step %d: row %d out of range: %v", step, a.NRows(), err)
	}
	if _, err := x.extract(t, a, I, with(J, -1)); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("step %d: column -1 out of range: %v", step, err)
	}
	if _, err := x.extract(t, a, I, with(J, a.NCols())); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("step %d: column %d out of range: %v", step, a.NCols(), err)
	}
	if a.NCols() > 0 {
		if err := ExtractSubmatrix(x.c, a, I, J, x.pos[:a.NCols()-1]); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("step %d: position table of %d slots for %d columns: %v", step, a.NCols()-1, a.NCols(), err)
		}
	}
	if err := ExtractSubmatrix(a, a, I, J, x.pos); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("step %d: output aliasing the input: %v", step, err)
	}
}

// Property: one position table and output matrix serve every extraction
// from matrices with hub rows — rows longer than J, which take the probe
// path — and pending overwrites and tombstones on hub and ordinary rows
// alike; each result matches the map oracle and the table is all zero
// after every call, the rejected ones included.
func TestPropExtractHubAndPendingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := newExtractScratch()
	for round := 0; round < 300; round++ {
		n := 8 + rng.Intn(32)
		a := NewMatrix[int](n, n)
		oracle := map[[2]Index]int{}
		set := func(i, j Index) {
			v := 1 + rng.Intn(9)
			Must0(a.SetElement(i, j, v))
			oracle[[2]Index{i, j}] = v
		}
		hub := rng.Intn(n)
		for j := 0; j < n; j++ {
			if rng.Intn(4) != 0 {
				set(hub, j)
			}
		}
		for k := 0; k < 2*n; k++ {
			set(rng.Intn(n), rng.Intn(n))
		}
		if rng.Intn(3) != 0 {
			a.Wait()
		}
		// The hub row's stored entries take pending deletions, and some
		// of the deleted columns are added back over their tombstones.
		for j := 0; j < n; j++ {
			if _, ok := oracle[[2]Index{hub, j}]; !ok || rng.Intn(3) != 0 {
				continue
			}
			Must0(a.RemoveElement(hub, j))
			delete(oracle, [2]Index{hub, j})
			if rng.Intn(2) == 0 {
				set(hub, j)
			}
		}
		for k := 0; k < n/2; k++ { // pending on top, a third of it on the hub
			i, j := rng.Intn(n), rng.Intn(n)
			if k%3 == 0 {
				i = hub
			}
			if rng.Intn(2) == 0 {
				Must0(a.RemoveElement(i, j))
				delete(oracle, [2]Index{i, j})
			} else {
				set(i, j)
			}
		}
		for k := 0; k < 4; k++ {
			checkExtract(t, round, a, oracle, rng, x)
		}
	}
	if x.probed == 0 || x.probedPending == 0 || x.walkedPending == 0 || x.scannedPend == 0 {
		t.Fatalf("paths not all taken: %d probed rows (%d with pending tuples, %d of them walked by an ascending J), %d scanned rows with pending tuples",
			x.probed, x.probedPending, x.walkedPending, x.scannedPend)
	}
}

// csrSorted reports whether every row of a's CSR arrays is strictly
// increasing by column.
func csrSorted[T any](a *Matrix[T]) bool {
	for i := 0; i < a.nrows; i++ {
		for p := a.rowPtr[i] + 1; p < a.rowPtr[i+1]; p++ {
			if a.colInd[p-1] >= a.colInd[p] {
				return false
			}
		}
	}
	return true
}

// randomPendingOps draws n ops on a small shape, so overwrites and repeated
// deletes of the same position are common. waitEvery = 0 never waits, which
// lets the buffer grow until it assembles itself.
func randomPendingOps(rng *rand.Rand, n, waitEvery int) []pendingOp {
	ops := make([]pendingOp, 0, n)
	for k := 0; k < n; k++ {
		op := pendingOp{i: rng.Intn(16), j: rng.Intn(16), x: rng.Intn(5)}
		switch r := rng.Intn(100); {
		case waitEvery > 0 && k%waitEvery == waitEvery-1:
			op.kind = opWait
		case r < 3:
			op.kind = opResize
			op.i, op.j = rng.Intn(4), rng.Intn(4)
		case r < 35:
			op.kind = opRemove
		default:
			op.kind = opSet
		}
		ops = append(ops, op)
	}
	return ops
}

// Property: NVals is exact and non-assembling under any interleaving of
// sets, overwrites, repeated deletes, waits and resizes — including runs
// long enough for the pending buffer to assemble itself.
func TestPropNValsMatchesOracleWithoutAssembly(t *testing.T) {
	f := func(seed int64, waitEvery uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		checkPendingOps(t, 12, 12, randomPendingOps(rng, 600, int(waitEvery%64)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Never waiting: only the bound keeps the buffer in check.
	checkPendingOps(t, 12, 12, randomPendingOps(rand.New(rand.NewSource(1)), 2000, 0))
}

// FuzzMatrixPending decodes the input as a sequence of 4-byte ops (kind,
// row, column, value) and checks them with checkPendingOps.
func FuzzMatrixPending(f *testing.F) {
	f.Add([]byte{0, 1, 1, 7, 0, 1, 1, 8, 1, 1, 1, 0, 1, 1, 1, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 3, 4, 1, 3, 2, 9, 0, 0, 1, 8, 2, 1, 3, 4, 0})
	f.Add(bytes.Repeat([]byte{0, 5, 6, 1, 0, 6, 5, 2, 0, 7, 7, 3}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]pendingOp, 0, len(data)/4)
		for k := 0; k+4 <= len(data); k += 4 {
			op := pendingOp{kind: pendingOpKind(data[k] % 8), i: Index(data[k+1] % 16), j: Index(data[k+2] % 16), x: int(data[k+3])}
			switch op.kind {
			case opSet, opRemove, opWait:
			case opResize: // grow by up to 3, so shapes stay small
				op.i, op.j = op.i%4, op.j%4
			default: // weight the decoding towards SetElement
				op.kind = opSet
			}
			ops = append(ops, op)
		}
		checkPendingOps(t, 8, 8, ops)
	})
}

// Property: MatrixFromTuples combines duplicates in input order on random
// tuple lists over a 6×5 shape, where most tuples are duplicates (see
// checkBuild).
func TestPropMatrixFromTuplesKeepsInputOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nr, nc = 6, 5 // 30 cells: most tuples are duplicates
		n := rng.Intn(400)
		rows, cols, vals := make([]Index, n), make([]Index, n), make([]int, n)
		for k := range rows {
			rows[k], cols[k], vals[k] = rng.Intn(nr), rng.Intn(nc), rng.Intn(1000)
		}
		return checkBuild(nr, nc, rows, cols, vals) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: VxM folds each column's products in u's order, at 8 columns
// (every column hit by several rows) and at 4000 (a few products against
// many columns). The add 31a+b is neither commutative nor associative, so
// any other order shows.
func TestPropVxMFoldOrder(t *testing.T) {
	s := Semiring[int, int, int]{
		Add: Monoid[int]{Op: func(a, b int) int { return 31*a + b }},
		Mul: func(a, b int) int { return a * b },
	}
	rng := rand.New(rand.NewSource(11))
	for _, nc := range []int{8, 4000} {
		for round := 0; round < 50; round++ {
			nr := 1 + rng.Intn(20)
			a := NewMatrix[int](nr, nc)
			for k := 0; k < 3*nr; k++ {
				Must0(a.SetElement(rng.Intn(nr), rng.Intn(min(nc, 8)), 1+rng.Intn(5)))
			}
			if rng.Intn(2) == 0 {
				a.Wait()
			}
			u := NewVector[int](nr)
			for i := 0; i < nr; i++ {
				if rng.Intn(2) == 0 {
					Must0(u.SetElement(i, 1+rng.Intn(5)))
				}
			}
			want := map[Index]int{}
			u.Iterate(func(i Index, ux int) bool {
				Must0(a.ForRow(i, func(j Index, x int) {
					if acc, ok := want[j]; ok {
						want[j] = s.Add.Op(acc, s.Mul(ux, x))
					} else {
						want[j] = s.Mul(ux, x)
					}
				}))
				return true
			})
			if got := vecToMap(Must(VxM(s, u, a))); !reflect.DeepEqual(got, want) {
				t.Fatalf("ncols %d round %d: VxM = %v, in-order fold %v", nc, round, got, want)
			}
		}
	}
}

// Property: AssignV over GrB_ALL equals the map oracle, with and
// without an accumulator, whether u adds positions to w or not.
func TestPropAssignVAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		w, u := NewVector[int](n), NewVector[int](n)
		want := map[Index]int{}
		for k := rng.Intn(n); k > 0; k-- {
			i, x := rng.Intn(n), rng.Intn(100)
			Must0(w.SetElement(i, x))
			want[i] = x
		}
		for k := rng.Intn(n); k > 0; k-- {
			Must0(u.SetElement(rng.Intn(n), rng.Intn(100)))
		}
		var accum func(int, int) int
		if rng.Intn(2) == 0 {
			accum = Plus[int]
		}
		u.Iterate(func(i Index, x int) bool {
			if old, ok := want[i]; ok && accum != nil {
				x = accum(old, x)
			}
			want[i] = x
			return true
		})
		Must0(AssignV(w, u, accum))
		if got := vecToMap(w); !reflect.DeepEqual(got, want) || !sortedUnique(w.ind) {
			t.Fatalf("round %d: AssignV(all) = %v (ind %v), oracle %v", round, got, w.ind, want)
		}
	}
}
