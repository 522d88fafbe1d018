package core

// RankIndex keeps entries under dense int keys in an indexed binary heap
// ordered by Less, so the best entries can be read at any time while single
// entries change: Set and Remove cost O(log n) and Top(k) reads only the
// heap's first 2^k−1 slots. An engine keeps one entry per ranked entity and
// calls Set only for the entities whose score changed, so ranking costs in
// proportion to the change whether scores rise (inserts) or fall
// (removals).
//
// Keys index a dense position table, so they should be small non-negative
// ints below 2^31 (an engine's dense entity index, the router's comment
// index). The zero value is an empty index.
type RankIndex struct {
	heap []rankSlot
	pos  []int32 // key → heap position + 1; 0 means absent
}

type rankSlot struct {
	e   Entry
	key int32
}

// Len reports how many keys the index holds.
func (x *RankIndex) Len() int { return len(x.heap) }

// Init replaces the index's content with one entry per key in keys, which
// must be distinct, in O(n): the bulk load of a first full evaluation. It
// allocates once, with a quarter more room than keys need (about what
// append's next growth would give), so the load leaves no garbage and the
// keys Set soon after it do not copy the whole index.
func (x *RankIndex) Init(keys []int, entry func(key int) Entry) {
	n := 0
	for _, k := range keys {
		n = max(n, k+1)
	}
	x.heap = make([]rankSlot, len(keys), len(keys)+len(keys)/4)
	x.pos = make([]int32, n, n+n/4)
	for p, k := range keys {
		x.heap[p] = rankSlot{e: entry(k), key: int32(k)}
		x.pos[k] = int32(p + 1)
	}
	for p := len(x.heap)/2 - 1; p >= 0; p-- {
		x.down(p)
	}
}

// Set stores e under key i, inserting the key or moving its entry to the
// place its new value ranks.
func (x *RankIndex) Set(i int, e Entry) {
	x.grow(i)
	p := int(x.pos[i]) - 1
	if p < 0 {
		x.heap = append(x.heap, rankSlot{e: e, key: int32(i)})
		x.up(len(x.heap) - 1)
		return
	}
	x.heap[p].e = e
	x.fix(p)
}

// grow extends the position table to cover key i.
func (x *RankIndex) grow(i int) {
	if i >= len(x.pos) {
		x.pos = append(x.pos, make([]int32, i+1-len(x.pos))...)
	}
}

// Remove drops key i; removing an absent key is a no-op.
func (x *RankIndex) Remove(i int) {
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

// Top returns the best k entries, best first. Every heap ancestor ranks
// before its descendants, so the k-th best entry has at most k−1 ancestors
// and sits in the first 2^k−1 slots; only those go through a Ranker.
func (x *RankIndex) Top(k int) Result {
	t := Ranker{k: k, entries: make(Result, 0, k)}
	for _, s := range x.heap[:min(len(x.heap), 1<<k-1)] {
		t.Consider(s.e)
	}
	return t.entries // the ranker is gone: its entries are the caller's
}

// fix restores the heap order around position p after its entry changed.
func (x *RankIndex) fix(p int) {
	if !x.down(p) {
		x.up(p)
	}
}

func (x *RankIndex) up(p int) {
	s := x.heap[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !Less(s.e, x.heap[parent].e) {
			break
		}
		x.place(p, x.heap[parent])
		p = parent
	}
	x.place(p, s)
}

// down sinks the entry at p and reports whether it moved.
func (x *RankIndex) down(p int) bool {
	s, start, n := x.heap[p], p, len(x.heap)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && Less(x.heap[r].e, x.heap[c].e) {
			c = r
		}
		if !Less(x.heap[c].e, s.e) {
			break
		}
		x.place(p, x.heap[c])
		p = c
	}
	x.place(p, s)
	return p != start
}

func (x *RankIndex) place(p int, s rankSlot) {
	x.heap[p] = s
	x.pos[s.key] = int32(p + 1)
}
