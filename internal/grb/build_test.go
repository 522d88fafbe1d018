package grb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// buildOracle is MatrixFromTuples' reference semantics: every cell's
// tuples combined in input order, nil dup keeping the last.
func buildOracle(rows, cols []Index, vals []int, dup func(a, b int) int) map[[2]Index]int {
	want := map[[2]Index]int{}
	for k := range rows {
		p := [2]Index{rows[k], cols[k]}
		if x, ok := want[p]; ok && dup != nil {
			want[p] = dup(x, vals[k])
		} else {
			want[p] = vals[k]
		}
	}
	return want
}

// orderDups are the dup functions every build check runs: nil keeps the
// last tuple, and the non-commutative 31a+b tells any reordering of a
// cell's tuples apart.
var orderDups = []func(a, b int) int{nil, func(a, b int) int { return 31*a + b }}

// checkBuild builds the tuples with each of orderDups and compares the
// matrix with buildOracle: same cells and values, rows sorted by column,
// and an exact NVals.
func checkBuild(nr, nc int, rows, cols []Index, vals []int) error {
	for d, dup := range orderDups {
		a, err := MatrixFromTuples(nr, nc, rows, cols, vals, dup)
		if err != nil {
			return fmt.Errorf("dup %d: %v", d, err)
		}
		want := buildOracle(rows, cols, vals, dup)
		if a.NVals() != len(want) {
			return fmt.Errorf("dup %d: NVals = %d, want %d", d, a.NVals(), len(want))
		}
		if !csrSorted(a) {
			return fmt.Errorf("dup %d: a row is not strictly sorted by column", d)
		}
		if got := matToMap(a); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("dup %d: built cells differ from the in-order oracle", d)
		}
	}
	return nil
}

// TestMatrixFromTuplesShapes runs the in-order oracle on the shapes a row
// bucket build must get right: hub rows long enough for the stable sort
// (with duplicates spread through them), rows just around the
// insertion-sort cut-off, empty rows at both ends and in between, far more
// rows than tuples, and rows that arrive sorted or reversed.
func TestMatrixFromTuplesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type shape struct {
		nr, nc     int
		rows, cols []Index
	}
	add := func(s *shape, i, j Index) { s.rows, s.cols = append(s.rows, i), append(s.cols, j) }
	shapes := []struct {
		name string
		mk   func() shape
	}{
		{"hub rows", func() shape {
			s := shape{nr: 50, nc: 3000}
			for k := 0; k < 20000; k++ {
				switch r := rng.Intn(10); {
				case r < 6:
					add(&s, 7, rng.Intn(s.nc)) // hub: ~12k tuples over 3000 columns
				case r < 8:
					add(&s, 31, rng.Intn(40)) // hub over few columns: mostly duplicates
				default:
					add(&s, rng.Intn(s.nr), rng.Intn(s.nc))
				}
			}
			return s
		}},
		{"rows around the sort cut-off", func() shape {
			s := shape{nr: 40, nc: 64}
			for i := 0; i < s.nr; i++ {
				for k := 0; k < i; k++ { // row i holds i tuples
					add(&s, i, rng.Intn(s.nc))
				}
			}
			rng.Shuffle(len(s.rows), func(x, y int) {
				s.rows[x], s.rows[y] = s.rows[y], s.rows[x]
				s.cols[x], s.cols[y] = s.cols[y], s.cols[x]
			})
			return s
		}},
		{"empty rows", func() shape {
			s := shape{nr: 1000, nc: 100}
			for k := 0; k < 3000; k++ {
				add(&s, 7*(1+rng.Intn(140)), rng.Intn(s.nc)) // rows 0 and 981..999 stay empty
			}
			return s
		}},
		{"nrows much larger than tuples", func() shape {
			s := shape{nr: 1 << 20, nc: 1 << 20}
			for k := 0; k < 60; k++ {
				add(&s, rng.Intn(s.nr), rng.Intn(s.nc))
			}
			add(&s, s.nr-1, s.nc-1)
			add(&s, s.nr-1, 0)
			return s
		}},
		{"sorted input", func() shape {
			s := shape{nr: 30, nc: 30}
			for i := 0; i < s.nr; i++ {
				for j := 0; j < s.nc; j += 1 + i%4 {
					add(&s, i, j)
				}
			}
			return s
		}},
		{"reversed input", func() shape {
			s := shape{nr: 30, nc: 30}
			for i := s.nr - 1; i >= 0; i-- {
				for j := s.nc - 1; j >= 0; j -= 1 + i%3 {
					add(&s, i, j)
				}
			}
			return s
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s := sh.mk()
			vals := make([]int, len(s.rows))
			for k := range vals {
				vals[k] = rng.Intn(1000)
			}
			if err := checkBuild(s.nr, s.nc, s.rows, s.cols, vals); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMatrixFromTuplesBytesPerTuple is a deterministic allocation gate: a
// boolean build allocates its CSR arrays (a 4-byte column index and a
// 1-byte value per tuple, plus the row pointers) and its sort scratch for
// one row, and nothing else that grows with the tuple count. It reads 5.1
// B per tuple (5.13 under -race), and the bound adds 15%. The 24-byte
// (row, col, position) sort key per tuple that the build used before row
// buckets read 33 B per tuple here, and the row bucket build with 8-byte
// column indices 9.15. A build that needs scratch per tuple must fit it
// in the 0.8 B left.
func TestMatrixFromTuplesBytesPerTuple(t *testing.T) {
	const nr, nc, n, runs = 1 << 10, 1 << 16, 1 << 16, 4
	rng := rand.New(rand.NewSource(1))
	rows, cols, vals := make([]Index, n), make([]Index, n), make([]bool, n)
	for k := range rows {
		rows[k], cols[k], vals[k] = rng.Intn(nr), rng.Intn(nc), true
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		if _, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
	t.Logf("MatrixFromTuples allocates %.2f B per boolean tuple", got)
	if got > 5.9 {
		t.Fatalf("MatrixFromTuples allocates %.2f B per boolean tuple, want at most 5.9 (the CSR arrays take 5.1)", got)
	}
}

// FuzzMatrixFromTuples checks builds of fuzzed tuple lists against the
// in-order oracle. A shape of at most 16×16 makes duplicates common and,
// with enough tuples, rows long enough for the stable sort.
func FuzzMatrixFromTuples(f *testing.F) {
	f.Add([]byte{3, 4, 0, 0, 7, 1, 3, 9, 0, 0, 2, 2, 1, 1})
	f.Add([]byte{1, 16, 0, 5, 1, 0, 4, 2, 0, 3, 3, 0, 2, 4, 0, 1, 5, 0, 0, 6})
	f.Add(append([]byte{2, 15}, make([]byte, 120)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nr, nc := 1+int(data[0]%16), 1+int(data[1]%16)
		var rows, cols []Index
		var vals []int
		for k := 2; k+3 <= len(data); k += 3 {
			rows = append(rows, int(data[k])%nr)
			cols = append(cols, int(data[k+1])%nc)
			vals = append(vals, int(data[k+2]))
		}
		if err := checkBuild(nr, nc, rows, cols, vals); err != nil {
			t.Fatal(err)
		}
	})
}
