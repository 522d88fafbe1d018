package core

// RankHeap keeps slots under dense int keys in an indexed binary heap
// ordered by its Ranking, so the best entries can be read at any time while
// single slots change: Set and Remove cost O(log n) and Top(k) reads only
// the heap's first 2^k−1 slots. An engine keeps one slot per ranked entity
// and calls Set only for the entities whose score changed, so ranking costs
// in proportion to the change whether scores rise (inserts) or fall
// (removals).
//
// A slot holds its key and as much of its entry as the Ranking needs to
// order it: an engine's heap copies whole Entries into its slots,
// while a slot with an empty value is the bare key of an entity the
// Ranking reads through a table of its own. Keys index a dense position
// table, so they should be small non-negative ints below 2^31 (an
// engine's dense entity index, a parked comment's State index). The zero
// value is an empty heap under the zero Ranking.
type RankHeap[S any, R Ranking[S]] struct {
	heap []Slot[S]
	pos  []int32 // key → heap position + 1; 0 means absent
	rank R
}

// Slot is one key in a RankHeap with the value its Ranking orders it by.
// The value comes first, so a zero-size value adds no padding.
type Slot[S any] struct {
	Val S
	Key int32
}

// Ranking orders a RankHeap's slots (Less of their entries) and names the
// Entry each slot ranks as.
type Ranking[S any] interface {
	Less(a, b Slot[S]) bool
	Entry(s Slot[S]) Entry
}

// Len reports how many keys the heap holds.
func (x *RankHeap[S, R]) Len() int { return len(x.heap) }

// Init replaces the heap's content with slots, whose keys must be
// distinct, ranked by r, in O(n): the bulk load of a first full
// evaluation. The heap keeps slots as its storage, so their spare capacity
// is the room later inserts take before the heap grows; its position table
// gets a quarter more room than the keys need.
func (x *RankHeap[S, R]) Init(r R, slots []Slot[S]) {
	n := 0
	for _, s := range slots {
		n = max(n, int(s.Key)+1)
	}
	x.heap, x.rank = slots, r
	x.pos = make([]int32, n, n+n/4)
	for p, s := range slots {
		x.pos[s.Key] = int32(p + 1)
	}
	for p := len(x.heap)/2 - 1; p >= 0; p-- {
		x.down(p)
	}
}

// Set stores s under its key, inserting the key or moving its slot to the
// place its new value ranks.
func (x *RankHeap[S, R]) Set(s Slot[S]) {
	i := int(s.Key)
	if i >= len(x.pos) {
		x.pos = append(x.pos, make([]int32, i+1-len(x.pos))...)
	}
	p := int(x.pos[i]) - 1
	if p < 0 {
		x.heap = append(x.heap, s)
		x.up(len(x.heap) - 1)
		return
	}
	x.heap[p] = s
	x.fix(p)
}

// Remove drops key i; removing an absent key is a no-op.
func (x *RankHeap[S, R]) Remove(i int) {
	if i >= len(x.pos) || x.pos[i] == 0 {
		return
	}
	p := int(x.pos[i]) - 1
	x.pos[i] = 0
	last := len(x.heap) - 1
	moved := x.heap[last]
	x.heap = x.heap[:last]
	if p < last {
		x.place(p, moved)
		x.fix(p)
	}
}

// Top returns the best k entries, best first.
func (x *RankHeap[S, R]) Top(k int) Result {
	t := Ranker{k: k, entries: make(Result, 0, k)}
	x.feed(&t)
	return t.entries // the ranker is gone: its entries are the caller's
}

// feed offers t the heap's candidates for its best t.k entries. Every
// heap ancestor ranks before its descendants, so the k-th best entry has
// at most k−1 ancestors and sits in the first 2^k−1 slots; only those are
// offered. Several heaps may feed one Ranker, which then ranks their
// union.
func (x *RankHeap[S, R]) feed(t *Ranker) {
	for _, s := range x.heap[:min(len(x.heap), 1<<t.k-1)] {
		t.Consider(x.rank.Entry(s))
	}
}

// fix restores the heap order around position p after its slot changed.
func (x *RankHeap[S, R]) fix(p int) {
	if !x.down(p) {
		x.up(p)
	}
}

func (x *RankHeap[S, R]) up(p int) {
	s := x.heap[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !x.rank.Less(s, x.heap[parent]) {
			break
		}
		x.place(p, x.heap[parent])
		p = parent
	}
	x.place(p, s)
}

// down sinks the slot at p and reports whether it moved.
func (x *RankHeap[S, R]) down(p int) bool {
	s, start, n := x.heap[p], p, len(x.heap)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && x.rank.Less(x.heap[r], x.heap[c]) {
			c = r
		}
		if !x.rank.Less(x.heap[c], s) {
			break
		}
		x.place(p, x.heap[c])
		p = c
	}
	x.place(p, s)
	return p != start
}

func (x *RankHeap[S, R]) place(p int, s Slot[S]) {
	x.heap[p] = s
	x.pos[s.Key] = int32(p + 1)
}

// byEntry ranks slots that hold their entries: the engines' rank heaps.
type byEntry struct{}

func (byEntry) Less(a, b Slot[Entry]) bool { return Less(a.Val, b.Val) }
func (byEntry) Entry(s Slot[Entry]) Entry  { return s.Val }

// rankAll bulk-loads x with entry(i) under every key i < n, in O(n): an
// engine's first full evaluation. It allocates once, with a quarter more
// room than the keys need (about what append's next growth would give),
// so the load leaves no garbage and the keys Set soon after it do not copy
// the whole heap.
func rankAll(x *RankHeap[Entry, byEntry], n int, entry func(i int) Entry) {
	slots := make([]Slot[Entry], n, n+n/4)
	for i := range slots {
		slots[i] = Slot[Entry]{Val: entry(i), Key: int32(i)}
	}
	x.Init(byEntry{}, slots)
}
