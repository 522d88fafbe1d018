package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
)

func TestGenerateValidates(t *testing.T) {
	for _, sf := range []int{1, 2, 4} {
		d := Generate(Config{ScaleFactor: sf, Seed: 2018})
		if err := model.Validate(d); err != nil {
			t.Fatalf("sf=%d: %v", sf, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 2, Seed: 99})
	b := Generate(Config{ScaleFactor: 2, Seed: 99})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (sf, seed) must generate identical datasets")
	}
	c := Generate(Config{ScaleFactor: 2, Seed: 100})
	if reflect.DeepEqual(a.Snapshot.Likes, c.Snapshot.Likes) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateTableIIShape(t *testing.T) {
	// Scale factor 1 must approximate Table II's first column: 1274 nodes,
	// 2533 edges; each doubling of sf doubles both.
	d1 := Generate(Config{ScaleFactor: 1, Seed: 2018})
	n1, e1 := d1.Snapshot.NodeCount(), d1.Snapshot.EdgeCount()
	if n1 < 1100 || n1 > 1450 {
		t.Fatalf("sf=1 nodes = %d, want ≈1274", n1)
	}
	if e1 < 2200 || e1 > 2900 {
		t.Fatalf("sf=1 edges = %d, want ≈2533", e1)
	}
	d4 := Generate(Config{ScaleFactor: 4, Seed: 2018})
	n4, e4 := d4.Snapshot.NodeCount(), d4.Snapshot.EdgeCount()
	if ratio := float64(n4) / float64(n1); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("node growth sf1→sf4 = %.2f, want ≈4", ratio)
	}
	if ratio := float64(e4) / float64(e1); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("edge growth sf1→sf4 = %.2f, want ≈4", ratio)
	}
}

func TestGenerateInsertsIndependentOfScale(t *testing.T) {
	// Table II: #inserts stays in the tens across three orders of
	// magnitude of graph size.
	small := Generate(Config{ScaleFactor: 1, Seed: 7})
	big := Generate(Config{ScaleFactor: 16, Seed: 7})
	for _, d := range []*model.Dataset{small, big} {
		ins := d.TotalInserts()
		if ins < 40 || ins > 200 {
			t.Fatalf("total inserts = %d, want within Table II's 45–160 band", ins)
		}
	}
	if len(small.ChangeSets) != 20 || len(big.ChangeSets) != 20 {
		t.Fatal("default must be 20 change sets")
	}
}

func TestGenerateLikeDistributionIsSkewed(t *testing.T) {
	// Facebook-like distribution: the most-liked comment should attract
	// far more likes than the median comment.
	d := Generate(Config{ScaleFactor: 4, Seed: 2018})
	counts := map[model.ID]int{}
	for _, l := range d.Snapshot.Likes {
		counts[l.CommentID]++
	}
	maxLikes := 0
	for _, c := range counts {
		if c > maxLikes {
			maxLikes = c
		}
	}
	if maxLikes < 5 {
		t.Fatalf("max likes per comment = %d; distribution not skewed", maxLikes)
	}
}

func TestGenerateFriendDegreeSkewed(t *testing.T) {
	d := Generate(Config{ScaleFactor: 4, Seed: 2018})
	deg := map[model.ID]int{}
	for _, f := range d.Snapshot.Friendships {
		deg[f.User1]++
		deg[f.User2]++
	}
	maxDeg := 0
	for _, c := range deg {
		if c > maxDeg {
			maxDeg = c
		}
	}
	if maxDeg < 8 {
		t.Fatalf("max friend degree = %d; distribution not skewed", maxDeg)
	}
}

func TestGenerateNoDuplicateEdges(t *testing.T) {
	d := Generate(Config{ScaleFactor: 2, Seed: 5})
	s := d.Snapshot.Clone()
	for i := range d.ChangeSets {
		s.Apply(&d.ChangeSets[i])
	}
	friends := map[[2]model.ID]struct{}{}
	for _, f := range s.Friendships {
		a, b := f.User1, f.User2
		if b < a {
			a, b = b, a
		}
		key := [2]model.ID{a, b}
		if _, dup := friends[key]; dup {
			t.Fatalf("duplicate friendship %v", key)
		}
		friends[key] = struct{}{}
	}
	likes := map[[2]model.ID]struct{}{}
	for _, l := range s.Likes {
		key := [2]model.ID{l.UserID, l.CommentID}
		if _, dup := likes[key]; dup {
			t.Fatalf("duplicate like %v", key)
		}
		likes[key] = struct{}{}
	}
}

func TestGenerateChangeSetsReferenceNewEntities(t *testing.T) {
	// Across seeds, change sets must (eventually) include comments that
	// immediately receive likes — the pattern stressing same-change-set
	// referential handling.
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		d := Generate(Config{ScaleFactor: 1, Seed: seed})
		for _, cs := range d.ChangeSets {
			newComments := map[model.ID]struct{}{}
			for _, ch := range cs.Changes {
				switch ch.Kind {
				case model.KindAddComment:
					newComments[ch.Comment.ID] = struct{}{}
				case model.KindAddLike:
					if _, ok := newComments[ch.Like.CommentID]; ok {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no change set likes a comment added in the same set; generator lost that pattern")
	}
}

func TestGenerateMixedWorkload(t *testing.T) {
	d := Generate(Config{ScaleFactor: 1, Seed: 3, RemovalFraction: 0.4, ChangeSets: 30})
	if err := model.Validate(d); err != nil {
		t.Fatal(err)
	}
	removals := 0
	for i := range d.ChangeSets {
		for _, ch := range d.ChangeSets[i].Changes {
			if ch.Kind.IsRemoval() {
				removals++
			}
		}
	}
	if removals < 10 {
		t.Fatalf("removals = %d, want a substantial share at fraction 0.4", removals)
	}
	// Determinism holds for mixed workloads too.
	d2 := Generate(Config{ScaleFactor: 1, Seed: 3, RemovalFraction: 0.4, ChangeSets: 30})
	if !reflect.DeepEqual(d, d2) {
		t.Fatal("mixed workload generation not deterministic")
	}
}

func TestDescribe(t *testing.T) {
	d := Generate(Config{ScaleFactor: 1, Seed: 1})
	got := Describe(d)
	if got == "" {
		t.Fatal("empty description")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ScaleFactor != 1 || cfg.ChangeSets != 20 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestGenerateBytesAreGolden pins the generator's output byte for byte: the
// SHA-256 over every file model.WriteDataset writes (each file's name, a
// NUL, then its bytes, in name order). perfbench's inputs come from the same
// generator, so a change here changes every benchmarked workload.
func TestGenerateBytesAreGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		files int
		sum   string
	}{
		{"sf1-seed2018", Config{ScaleFactor: 1, Seed: 2018}, 25, "d329874a41251999c395c041f277175d840da1f0cce62fed57f8c61f0169bab0"},
		{"sf4-seed7-rf35", Config{ScaleFactor: 4, Seed: 7, RemovalFraction: 0.35, ChangeSets: 30}, 35, "4c5bca34d46742d1feecc12c0e5d4244f895404d9c8e1eadae4051663c4f9880"},
	} {
		dir := t.TempDir()
		if err := model.WriteDataset(dir, Generate(tc.cfg)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(e.Name()))
			h.Write([]byte{0})
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(entries) != tc.files || got != tc.sum {
			t.Errorf("%s: dataset bytes changed: %d files, sha256 %s; want %d files, sha256 %s", tc.name, len(entries), got, tc.files, tc.sum)
		}
	}
}

// BenchmarkGenerate times Generate at sf 128 with 2,000 change sets, 35% of
// them removals: the size of the datasets the server and shard benchmarks
// build.
func BenchmarkGenerate(b *testing.B) {
	cfg := Config{ScaleFactor: 128, Seed: 1, ChangeSets: 2000, RemovalFraction: 0.35}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateSink = Generate(cfg)
	}
}

var generateSink *model.Dataset
