package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// rankParts feeds every partition's entries through one ranker, the way
// q2cc ranks its held and its parked comments together.
func rankParts(t *Ranker, parts ...Result) Result {
	for _, p := range parts {
		for _, e := range p {
			t.Consider(e)
		}
	}
	return t.Result()
}

func TestRankerMergeOrdersAcrossPartitions(t *testing.T) {
	p1 := Result{{ID: 10, Score: 50, Timestamp: 1}, {ID: 11, Score: 30, Timestamp: 1}}
	p2 := Result{{ID: 20, Score: 40, Timestamp: 9}, {ID: 21, Score: 40, Timestamp: 3}}
	p3 := Result{} // an empty shard contributes nothing

	got := rankParts(NewTopK(TopK), p1, p2, p3)
	want := Result{
		{ID: 10, Score: 50, Timestamp: 1},
		{ID: 20, Score: 40, Timestamp: 9}, // newer timestamp wins the 40-tie
		{ID: 21, Score: 40, Timestamp: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRankerMergeFewerThanK(t *testing.T) {
	got := rankParts(NewTopK(TopK), Result{{ID: 1, Score: 5}}, Result{{ID: 2, Score: 7}})
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Errorf("got %q, want 2|1", got)
	}
}

// TestRankerMergeMatchesGlobalRanker partitions a random entry population
// arbitrarily, ranks each partition, and checks that ranking the union of
// the partial top-k answers equals ranking the whole population at once —
// the exactness property the sharded runtime relies on.
func TestRankerMergeMatchesGlobalRanker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		parts := 1 + rng.Intn(5)
		global := NewTopK(TopK)
		rankers := make([]*Ranker, parts)
		for i := range rankers {
			rankers[i] = NewTopK(TopK)
		}
		for id := 0; id < n; id++ {
			e := Entry{ID: int64(id), Score: int64(rng.Intn(10)), Timestamp: int64(rng.Intn(5))}
			global.Consider(e)
			rankers[rng.Intn(parts)].Consider(e)
		}
		partial := make([]Result, parts)
		for i, r := range rankers {
			partial[i] = r.Result()
		}
		got, want := rankParts(NewTopK(TopK), partial...), global.Result()
		if got.String() != want.String() {
			t.Fatalf("trial %d: merged %q, global %q", trial, got, want)
		}
	}
}

// FuzzRankIndex drives the engines' rank index, a RankHeap of whole
// entries: it bulk-loads some keys with Init, then runs random
// Set/Remove/Top sequences over a small key space with many equal scores
// and timestamps, and after every operation checks the heap's length and
// its Top(k) for k = 1..4 against a brute-force sort of a map holding the
// same entries. The engines only Set; q2cc's parked set also Removes.
func FuzzRankIndex(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(9), []byte{0x10, 0x21, 0x32, 0x80, 0x91, 0x10, 0x10, 0xa3, 0x44, 0x55, 0x66, 0x77})
	f.Add(uint8(16), []byte{0xff, 0x00, 0xfe, 0x01, 0xfd, 0x02, 0xfc, 0x03, 0x81, 0x82, 0x83})
	f.Add(uint8(0), []byte{0xc4}) // removes the root of a bulk-loaded heap
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		var x RankHeap[Entry, byEntry]
		want := map[int]Entry{}
		initial := func(i int) Entry { return Entry{ID: int64(i), Score: int64(i*5) % 3, Timestamp: int64(i) & 1} }
		// Init takes every other key from n%17 up: sparse keys, or none.
		var slots []Slot[Entry]
		for k := int(n % 17); k < 16; k += 2 {
			slots = append(slots, Slot[Entry]{Val: initial(k), Key: int32(k)})
			want[k] = initial(k)
		}
		x.Init(byEntry{}, slots)
		for step, op := range ops {
			// Low 4 bits pick one of 16 keys; the high bits pick Set
			// (with 4 scores and 2 timestamps, so ties abound) or Remove.
			key := int(op & 0x0f)
			if op&0x80 != 0 && op&0x40 != 0 {
				x.Remove(key)
				delete(want, key)
			} else {
				e := Entry{ID: int64(key), Score: int64(op>>4) & 3, Timestamp: int64(step) & 1}
				x.Set(Slot[Entry]{Val: e, Key: int32(key)})
				want[key] = e
			}
			if x.Len() != len(want) {
				t.Fatalf("step %d: Len %d, want %d", step, x.Len(), len(want))
			}
			all := make(Result, 0, len(want))
			for _, e := range want {
				all = append(all, e)
			}
			sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
			for k := 1; k <= 4; k++ {
				w := all[:min(k, len(all))]
				if got := x.Top(k); !slices.Equal(got, w) {
					t.Fatalf("step %d: Top(%d) = %v, brute force %v", step, k, got, w)
				}
			}
		}
	})
}
