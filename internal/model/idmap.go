package model

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// IDMap maintains a dense, insertion-ordered mapping between external
// entity ids and matrix indices. GraphBLAS matrices are indexed 0..n-1, so
// every entity kind gets its own IDMap; new entities appended by change
// sets extend the mapping (and hence the matrix dimension |posts′|,
// |comments′|, |users′| of the incremental algorithms).
//
// It is a slotTable over the ids in index order: 13–21 bytes per id (16.5
// at 128k ids, see BenchmarkIDMap), against about 45 for a map[ID]int
// beside the same slice. The zero value is an empty map. An IDMap holds
// at most 2³¹−1 ids.
type IDMap struct {
	slotTable[ID]
}

// slotTable indexes keys, a slice of distinct keys, by key: an
// open-addressing table of int32 slots (linear probing, Fibonacci
// hashing) that hold 1 + a key's position in keys, kept at most 3/4 full.
// A key leaves by backward-shift deletion, which moves the later keys of
// its probe cluster back towards their homes, so no slot is ever a
// tombstone. The zero value is an empty table.
type slotTable[K ~int64 | ~uint64] struct {
	slots []int32 // 1 + position in keys; 0 marks an empty slot
	shift uint    // 64 − log2(len(slots))
	keys  []K
}

// maxKeys is the most keys a slotTable holds: a slot stores position+1 in
// an int32.
const maxKeys = math.MaxInt32

// NewIDMap returns an empty mapping.
func NewIDMap() *IDMap { return &IDMap{} }

// home is k's first probe position: the top bits of a Fibonacci hash, so
// sequential keys spread evenly over the table.
func (t *slotTable[K]) home(k K) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot position holding k and its slot value, or the
// empty position where k would go and 0. It returns −1 on an empty table.
func (t *slotTable[K]) find(k K) (int, int32) {
	if len(t.slots) == 0 {
		return -1, 0
	}
	mask := len(t.slots) - 1
	for p := t.home(k); ; p = (p + 1) & mask {
		if s := t.slots[p]; s == 0 || t.keys[s-1] == k {
			return p, s
		}
	}
}

// rehash rebuilds the table with n slots, a power of two, and reinserts
// every key in position order.
func (t *slotTable[K]) rehash(n int) {
	t.slots = make([]int32, n)
	t.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	mask := len(t.slots) - 1
	for i, k := range t.keys {
		p := t.home(k)
		for t.slots[p] != 0 {
			p = (p + 1) & mask
		}
		t.slots[p] = int32(i + 1)
	}
}

// reserve makes room for n keys in all, so adding up to n needs no rehash.
func (t *slotTable[K]) reserve(n int) {
	if 4*n <= 3*len(t.slots) {
		return
	}
	t.keys = slices.Grow(t.keys, n-len(t.keys))
	t.rehash(max(16, 1<<bits.Len(uint(4*n/3))))
}

// add appends k and returns its position and true, or returns the
// position k already has and false. It doubles the table (16 slots at
// first) before it would pass 3/4 full, and panics past 2³¹−1 keys.
func (t *slotTable[K]) add(k K) (int, bool) {
	p, s := t.find(k)
	if s != 0 {
		return int(s - 1), false
	}
	i := len(t.keys)
	if i == maxKeys {
		panic(fmt.Sprintf("model: table full at %d keys", i))
	}
	if 4*(i+1) > 3*len(t.slots) {
		t.rehash(max(16, 2*len(t.slots)))
		p, _ = t.find(k)
	}
	t.slots[p] = int32(i + 1)
	t.keys = append(t.keys, k)
	return i, true
}

// index returns k's position and whether k is present.
func (t *slotTable[K]) index(k K) (int, bool) {
	if _, s := t.find(k); s != 0 {
		return int(s - 1), true
	}
	return 0, false
}

// remove deletes k, which must be present, by moving the last key into
// its position, and returns that position.
func (t *slotTable[K]) remove(k K) int {
	p, s := t.find(k)
	i, last := int(s-1), len(t.keys)-1
	if i != last {
		moved := t.keys[last]
		q, _ := t.find(moved)
		t.slots[q] = s
		t.keys[i] = moved
	}
	t.keys = t.keys[:last]
	t.del(p)
	return i
}

// pop removes the last key.
func (t *slotTable[K]) pop() { t.remove(t.keys[len(t.keys)-1]) }

// unremove reverts the remove of k that returned i: the key now at i goes
// back to the end and k back to position i.
func (t *slotTable[K]) unremove(k K, i int) {
	j, _ := t.add(k)
	if i == j {
		return
	}
	p, _ := t.find(t.keys[i])
	q, _ := t.find(k)
	t.slots[p], t.slots[q] = int32(j+1), int32(i+1)
	t.keys[i], t.keys[j] = k, t.keys[i]
}

// del empties slot p and moves back each later key of its probe cluster
// that may sit at the emptied slot, that is, whose home is not in the
// cyclic range (p, q] of the slot q it sits at.
func (t *slotTable[K]) del(p int) {
	mask := len(t.slots) - 1
	for q := (p + 1) & mask; t.slots[q] != 0; q = (q + 1) & mask {
		if h := t.home(t.keys[t.slots[q]-1]); (q-h)&mask >= (q-p)&mask {
			t.slots[p] = t.slots[q]
			p = q
		}
	}
	t.slots[p] = 0
}

// Add inserts id and returns its dense index. Adding an existing id returns
// the existing index (idempotent), matching insert-only replays. It panics
// past 2³¹−1 ids.
func (m *IDMap) Add(id ID) int {
	i, _ := m.add(id)
	return i
}

// Index returns the dense index of id and whether it is known.
func (m *IDMap) Index(id ID) (int, bool) { return m.index(id) }

// MustIndex returns the dense index of id, panicking on unknown ids —
// dataset integrity is validated at load time, so a miss is a bug.
func (m *IDMap) MustIndex(id ID) int {
	idx, ok := m.Index(id)
	if !ok {
		panic(fmt.Sprintf("model: unknown id %d", id))
	}
	return idx
}

// IDOf returns the external id at dense index idx.
func (m *IDMap) IDOf(idx int) ID { return m.keys[idx] }

// Len reports the number of mapped ids.
func (m *IDMap) Len() int { return len(m.keys) }
