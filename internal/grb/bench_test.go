package grb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// Kernel micro-benchmarks: not tied to a table or figure, but they pin the
// cost model the design notes in README.md rely on (O(nnz) whole-matrix kernels,
// O(touched rows) VxM, O(1) pending SetElement, O(nnz + p log p) Wait).

func benchMatrix(n, nnz int, seed int64) *Matrix[int] {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Index, nnz)
	cols := make([]Index, nnz)
	vals := make([]int, nnz)
	for k := 0; k < nnz; k++ {
		rows[k] = rng.Intn(n)
		cols[k] = rng.Intn(n)
		vals[k] = rng.Intn(100)
	}
	a, err := MatrixFromTuples(n, n, rows, cols, vals, Plus[int])
	if err != nil {
		panic(err)
	}
	return a
}

func BenchmarkMxV(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		a := benchMatrix(n, 8*n, 1)
		u := NewVector[int](n)
		rng := rand.New(rand.NewSource(2))
		for k := 0; k < n/2; k++ {
			Must0(u.SetElement(rng.Intn(n), 1))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MxV(plusTimes[int](), a, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVxMSparseVector(b *testing.B) {
	// The incremental hot path: a 5-element vector against a large matrix
	// must cost O(5 rows), independent of nnz.
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		a := benchMatrix(n, 8*n, 3)
		u := NewVector[int](n)
		for k := 0; k < 5; k++ {
			Must0(u.SetElement(k*(n/7), 1))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := VxM(plusTimes[int](), u, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVxMFront runs VxM on fronts whose product count W spans
// ncols/256 to a full front (W = 8·ncols) of a 100k-column matrix: its
// sparse accumulator costs O(W log W), whatever the column count.
func BenchmarkVxMFront(b *testing.B) {
	const n = 100_000
	a := benchMatrix(n, 8*n, 3)
	for _, rows := range []int{n / 2048, n / 1024, n / 512, n / 128, n} {
		u := NewVector[int](n)
		for k := 0; k < rows; k++ {
			Must0(u.SetElement(k*(n/rows), 1))
		}
		work := 0
		for _, i := range u.ind {
			work += int(a.rowPtr[i+1] - a.rowPtr[i])
		}
		b.Run(fmt.Sprintf("W÷ncols=%.4f", float64(work)/n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := VxM(plusTimes[int](), u, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMxM(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		a := benchMatrix(n, 8*n, 4)
		c := benchMatrix(n, 8*n, 5)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MxM(plusTimes[int](), a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSetElementPending(b *testing.B) {
	a := benchMatrix(100_000, 800_000, 6)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SetElement(rng.Intn(100_000), rng.Intn(100_000), i)
	}
}

func BenchmarkWaitAfterSmallBurst(b *testing.B) {
	// Assembly cost of a 100-tuple burst into matrices of growing size.
	for _, nnz := range []int{100_000, 1_000_000} {
		n := nnz / 8
		b.Run(fmt.Sprintf("nnz%d", nnz), func(b *testing.B) {
			a := benchMatrix(n, nnz, 8)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < 100; k++ {
					_ = a.SetElement(rng.Intn(n), rng.Intn(n), k)
				}
				b.StartTimer()
				a.Wait()
			}
		})
	}
}

func BenchmarkEWiseAddV(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		u := NewVector[int](n)
		v := NewVector[int](n)
		rng := rand.New(rand.NewSource(10))
		for k := 0; k < n/2; k++ {
			Must0(u.SetElement(rng.Intn(n), 1))
			Must0(v.SetElement(rng.Intn(n), 2))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EWiseAddV(Plus[int], u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReduceRows(b *testing.B) {
	a := benchMatrix(100_000, 800_000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceRows(PlusMonoid[int](), Ident[int], a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractSubmatrix(b *testing.B) {
	// The Q2 per-comment pattern: small induced subgraphs from a large
	// symmetric matrix.
	n := 100_000
	a := benchMatrix(n, 8*n, 13)
	rng := rand.New(rand.NewSource(14))
	idx := make([]Index, 32)
	seen := map[Index]struct{}{}
	for k := 0; k < len(idx); {
		i := rng.Intn(n)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		idx[k] = i
		k++
	}
	// One output matrix and position table serve every call, as one Q2
	// worker's serve every comment it scores.
	c, pos := NewMatrix[int](0, 0), make([]int32, n)
	b.Run("induced32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ExtractSubmatrix(c, a, idx, idx, pos); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A hub liker: one row of degree 10⁴ among five likers. The hub row is
	// probed at the five columns rather than scanned, so the cost is that
	// of five short rows.
	hub := idx[0]
	rows, cols, vals := make([]Index, 0, 10_000), make([]Index, 0, 10_000), make([]bool, 0, 10_000)
	for j := 0; j < 10_000; j++ {
		rows, cols, vals = append(rows, hub), append(cols, j*(n/10_000)), append(vals, true)
	}
	rows, cols, vals = append(rows, hub), append(cols, idx[1]), append(vals, true)
	h, err := MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		b.Fatal(err)
	}
	hc := NewMatrix[bool](0, 0)
	b.Run("hubrow10k-J5", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ExtractSubmatrix(hc, h, idx[:5], idx[:5], pos); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatrixFromTuples builds the engines' boolean matrices at their
// scale-factor-128 shapes (datagen seed 1), from tuples in snapshot order
// as core.loadGraph passes them: likes (comments × users) and friends
// (users × users, both orientations of every friendship). It reports the
// build's ns and allocated bytes per tuple.
func BenchmarkMatrixFromTuples(b *testing.B) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 128, Seed: 1}).Snapshot
	comments, users := model.NewIDMap(), model.NewIDMap()
	for _, c := range snap.Comments {
		comments.Add(c.ID)
	}
	for _, u := range snap.Users {
		users.Add(u.ID)
	}
	var likes, friends [2][]Index
	for _, l := range snap.Likes {
		likes[0] = append(likes[0], comments.MustIndex(l.CommentID))
		likes[1] = append(likes[1], users.MustIndex(l.UserID))
	}
	for _, f := range snap.Friendships {
		u, v := users.MustIndex(f.User1), users.MustIndex(f.User2)
		friends[0] = append(friends[0], u, v)
		friends[1] = append(friends[1], v, u)
	}
	for _, c := range []struct {
		name       string
		nr, nc     int
		rows, cols []Index
	}{
		{"likes", comments.Len(), users.Len(), likes[0], likes[1]},
		{"friends", users.Len(), users.Len(), friends[0], friends[1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			trues := make([]bool, len(c.rows))
			for k := range trues {
				trues[k] = true
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MatrixFromTuples(c.nr, c.nc, c.rows, c.cols, trues, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(b.N) * float64(len(c.rows))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tuples, "B/tuple")
		})
	}
}
