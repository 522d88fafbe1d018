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
// The id → index direction is an open-addressing table of int32 slots
// (linear probing, Fibonacci hashing) that point into toID, kept at most
// 3/4 full: 13–21 bytes per id with toID (16.5 at 128k ids, see
// BenchmarkIDMap), against about 45 for a map[ID]int beside the same
// slice. The zero value is an empty map. An IDMap holds at most 2³¹−1 ids.
type IDMap struct {
	slots []int32 // 1 + index into toID; 0 marks an empty slot
	shift uint    // 64 − log2(len(slots))
	toID  []ID
}

// maxIDs is the most ids an IDMap holds: a slot stores index+1 in an int32.
const maxIDs = math.MaxInt32

// NewIDMap returns an empty mapping.
func NewIDMap() *IDMap { return &IDMap{} }

// home is id's first probe position: the top bits of a Fibonacci hash, so
// sequential ids spread evenly over the table.
func (m *IDMap) home(id ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns the slot position holding id and its slot value, or the
// empty position where id would go and 0. It returns −1 on an empty table.
func (m *IDMap) find(id ID) (int, int32) {
	if len(m.slots) == 0 {
		return -1, 0
	}
	mask := len(m.slots) - 1
	for p := m.home(id); ; p = (p + 1) & mask {
		if s := m.slots[p]; s == 0 || m.toID[s-1] == id {
			return p, s
		}
	}
}

// grow doubles the table (16 slots at first).
func (m *IDMap) grow() { m.rehash(max(16, 2*len(m.slots))) }

// rehash rebuilds the table with n slots, a power of two, and reinserts
// every id in index order.
func (m *IDMap) rehash(n int) {
	m.slots = make([]int32, n)
	m.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	mask := len(m.slots) - 1
	for i, id := range m.toID {
		p := m.home(id)
		for m.slots[p] != 0 {
			p = (p + 1) & mask
		}
		m.slots[p] = int32(i + 1)
	}
}

// reserve makes room for n ids in all, so adding up to n needs no rehash.
func (m *IDMap) reserve(n int) {
	if 4*n <= 3*len(m.slots) {
		return
	}
	m.toID = slices.Grow(m.toID, n-len(m.toID))
	m.rehash(max(16, 1<<bits.Len(uint(4*n/3))))
}

// pop removes the newest id. It is exact: each id's probe run, from its
// home to its slot, held only older ids when it was placed (a rehash
// reinserts in index order too), so the newest id's slot lies in no other
// id's run and emptying it leaves every lookup as before the id was added.
func (m *IDMap) pop() {
	id := m.toID[len(m.toID)-1]
	p, _ := m.find(id)
	m.slots[p] = 0
	m.toID = m.toID[:len(m.toID)-1]
}

// Add inserts id and returns its dense index. Adding an existing id returns
// the existing index (idempotent), matching insert-only replays. It panics
// past 2³¹−1 ids.
func (m *IDMap) Add(id ID) int {
	p, s := m.find(id)
	if s != 0 {
		return int(s - 1)
	}
	idx := len(m.toID)
	if idx == maxIDs {
		panic(fmt.Sprintf("model: IDMap full at %d ids", idx))
	}
	if 4*(idx+1) > 3*len(m.slots) {
		m.grow()
		p, _ = m.find(id)
	}
	m.slots[p] = int32(idx + 1)
	m.toID = append(m.toID, id)
	return idx
}

// Index returns the dense index of id and whether it is known.
func (m *IDMap) Index(id ID) (int, bool) {
	if _, s := m.find(id); s != 0 {
		return int(s - 1), true
	}
	return 0, false
}

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
func (m *IDMap) IDOf(idx int) ID { return m.toID[idx] }

// Len reports the number of mapped ids.
func (m *IDMap) Len() int { return len(m.toID) }
