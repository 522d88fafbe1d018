package model

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fibInverse is the multiplicative inverse of IDMap's hash multiplier
// modulo 2⁶⁴ (Newton's iteration doubles the correct low bits each round).
func fibInverse() uint64 {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi)
	for i := 0; i < 6; i++ {
		inv *= 2 - phi*inv
	}
	return inv
}

// collidingIDs returns n ids whose hashes agree in their top 32 bits, so
// they share one home slot in every table up to 2³² slots. With last set,
// the home is the table's last slot and probes wrap around to slot 0.
func collidingIDs(n int, last bool) []ID {
	inv := fibInverse()
	ids := make([]ID, n)
	for k := range ids {
		h := uint64(k)
		if last {
			h = math.MaxUint64 - uint64(k)
		}
		ids[k] = ID(h * inv)
	}
	return ids
}

// idMapOracle is the reference an IDMap must agree with.
type idMapOracle struct {
	index map[ID]int
	ids   []ID
}

func (o *idMapOracle) add(id ID) int {
	if idx, ok := o.index[id]; ok {
		return idx
	}
	o.index[id] = len(o.ids)
	o.ids = append(o.ids, id)
	return len(o.ids) - 1
}

// checkIDMap compares every observable of m with the oracle, plus a miss
// for each id in absent.
func checkIDMap(t *testing.T, m *IDMap, o *idMapOracle, absent []ID) {
	t.Helper()
	if m.Len() != len(o.ids) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(o.ids))
	}
	for idx, id := range o.ids {
		if got := m.IDOf(idx); got != id {
			t.Fatalf("IDOf(%d) = %d, want %d", idx, got, id)
		}
		if got, ok := m.Index(id); !ok || got != idx {
			t.Fatalf("Index(%d) = %d, %v; want %d, true", id, got, ok, idx)
		}
	}
	for _, id := range absent {
		if _, known := o.index[id]; known {
			continue
		}
		if got, ok := m.Index(id); ok || got != 0 {
			t.Fatalf("Index(%d) = %d, %v for an absent id; want 0, false", id, got, ok)
		}
	}
}

func TestIDMapCollidingIDsShareHome(t *testing.T) {
	m := NewIDMap()
	for _, last := range []bool{false, true} {
		ids := collidingIDs(64, last)
		for _, bits := range []uint{4, 10, 20, 32} {
			m.shift = 64 - bits
			want := 0
			if last {
				want = 1<<bits - 1
			}
			for _, id := range ids {
				if got := m.home(id); got != want {
					t.Fatalf("home(%d) at 2^%d slots = %d, want %d", id, bits, got, want)
				}
			}
		}
	}
}

// TestIDMapMatchesOracle drives random Add and Index calls, with
// duplicates, extreme ids and ids that collide in the hash, through enough
// growth for several rehashes, checking against a map[ID]int oracle.
func TestIDMapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []ID{0, -1, 1, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}
	special = append(special, collidingIDs(40, false)...)
	special = append(special, collidingIDs(40, true)...)
	pick := func() ID {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return ID(rng.Int63n(3000)) // dense range: many duplicates
		case 2:
			return ID(rng.Uint64())
		default:
			return -ID(rng.Int63n(3000))
		}
	}
	m, o := NewIDMap(), &idMapOracle{index: map[ID]int{}}
	for step := 0; step < 20000; step++ {
		id := pick()
		if rng.Intn(3) == 0 {
			want, wantOK := o.index[id]
			if got, ok := m.Index(id); ok != wantOK || got != want {
				t.Fatalf("step %d: Index(%d) = %d, %v; want %d, %v", step, id, got, ok, want, wantOK)
			}
			continue
		}
		if got, want := m.Add(id), o.add(id); got != want {
			t.Fatalf("step %d: Add(%d) = %d, want %d", step, id, got, want)
		}
		if step%2500 == 0 {
			checkIDMap(t, m, o, special)
		}
	}
	if len(o.ids) < 1<<12 {
		t.Fatalf("only %d ids: too few rehashes to cover growth", len(o.ids))
	}
	checkIDMap(t, m, o, append(special, 5000, -5000, math.MinInt64+1))
}

// TestIDMapZeroValue: an IDMap's zero value is an empty, usable map.
func TestIDMapZeroValue(t *testing.T) {
	var m IDMap
	if _, ok := m.Index(7); ok || m.Len() != 0 {
		t.Fatal("zero IDMap is not empty")
	}
	if m.Add(7) != 0 || m.Add(8) != 1 || m.Add(7) != 0 {
		t.Fatal("zero IDMap does not assign dense indices")
	}
}

// FuzzIDMap decodes the input as 9-byte operations (opcode, little-endian
// id) and replays them against a map[ID]int oracle. Opcodes 2 and 3 map
// the id onto a small set of hash-colliding ids, so probe chains and
// wrap-around are exercised whatever the fuzzer picks.
func FuzzIDMap(f *testing.F) {
	op := func(code byte, id ID) []byte {
		b := make([]byte, 9)
		b[0] = code
		binary.LittleEndian.PutUint64(b[1:], uint64(id))
		return b
	}
	var seq []byte
	for _, id := range []ID{0, -1, math.MaxInt64, math.MinInt64, 0, 42} {
		seq = append(seq, op(0, id)...)
		seq = append(seq, op(1, id+1)...)
	}
	f.Add(seq)
	var collide []byte
	for k := 0; k < 40; k++ {
		collide = append(collide, op(byte(2+k%2), ID(k))...)
	}
	f.Add(collide)
	f.Add([]byte{})

	colliding := append(collidingIDs(16, false), collidingIDs(16, true)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, o := NewIDMap(), &idMapOracle{index: map[ID]int{}}
		var seen []ID
		for len(data) >= 9 {
			code, id := data[0]%4, ID(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			if code >= 2 {
				id = colliding[uint64(id)%uint64(len(colliding))]
			}
			seen = append(seen, id)
			if code%2 == 1 {
				want, wantOK := o.index[id]
				if got, ok := m.Index(id); ok != wantOK || got != want {
					t.Fatalf("Index(%d) = %d, %v; want %d, %v", id, got, ok, want, wantOK)
				}
				continue
			}
			if got, want := m.Add(id), o.add(id); got != want {
				t.Fatalf("Add(%d) = %d, want %d", id, got, want)
			}
		}
		checkIDMap(t, m, o, append(seen, colliding...))
	})
}

// refIDMap is the layout IDMap replaced: a Go map beside the same id
// slice. BenchmarkIDMap runs it as the reference.
type refIDMap struct {
	toIndex map[ID]int
	toID    []ID
}

func (m *refIDMap) Add(id ID) int {
	if idx, ok := m.toIndex[id]; ok {
		return idx
	}
	idx := len(m.toID)
	m.toIndex[id] = idx
	m.toID = append(m.toID, id)
	return idx
}

func (m *refIDMap) Index(id ID) (int, bool) {
	idx, ok := m.toIndex[id]
	return idx, ok
}

// BenchmarkIDMap times Add, an Index hit and an Index miss at 128k ids,
// the comment count of an sf 128 engine, for the compact IDMap and the
// map[ID]int reference, and reports the heap each retains per id. Ids are
// sequential from a base, like datagen's; hits are looked up in a
// shuffled order and misses are ids past the last one.
func BenchmarkIDMap(b *testing.B) {
	const n = 128 << 10
	const base = 3_000_000
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = base + ID(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	type idIndex interface {
		Add(ID) int
		Index(ID) (int, bool)
	}
	for _, impl := range []struct {
		name string
		new  func() idIndex
	}{
		{"IDMap", func() idIndex { return NewIDMap() }},
		{"map", func() idIndex { return &refIDMap{toIndex: map[ID]int{}} }},
	} {
		build := func() idIndex {
			m := impl.new()
			for _, id := range ids {
				m.Add(id)
			}
			return m
		}
		b.Run(impl.name+"/Add", func(b *testing.B) {
			var m idIndex
			for i := 0; i < b.N; i++ {
				k := i % n
				if k == 0 {
					b.StopTimer()
					m = impl.new()
					b.StartTimer()
				}
				m.Add(ids[k])
			}
			b.StopTimer()
			m = nil
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			m = build()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc-before)/n, "retained-B/entry")
			runtime.KeepAlive(m)
		})
		b.Run(impl.name+"/IndexHit", func(b *testing.B) {
			m := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Index(ids[order[i%n]]); !ok {
					b.Fatal("miss on a stored id")
				}
			}
		})
		b.Run(impl.name+"/IndexMiss", func(b *testing.B) {
			m := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Index(base + n + ID(order[i%n])); ok {
					b.Fatal("hit on an absent id")
				}
			}
		})
	}
}

// TestSlotTableRemoveMatchesOracle drives add, remove, the remove's undo
// and pop on an edge-keyed slotTable, keys drawn from a small dense range
// and from hash-colliding sets whose home is the first or the last slot,
// so backward-shift deletion runs through long clusters and across the
// wrap-around. After every step each key must sit where a plain slice
// oracle has it, resolve to its position, and absent keys must miss.
func TestSlotTableRemoveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pool []uint64
	for _, last := range []bool{false, true} {
		for _, id := range collidingIDs(48, last) {
			pool = append(pool, uint64(id))
		}
	}
	for k := uint64(0); k < 200; k++ {
		pool = append(pool, k<<32|(k*7)%13)
	}
	var tab slotTable[uint64]
	var keys []uint64 // the oracle: keys in position order
	at := func(k uint64) int {
		for i, x := range keys {
			if x == k {
				return i
			}
		}
		return -1
	}
	check := func(step int) {
		t.Helper()
		if len(tab.keys) != len(keys) {
			t.Fatalf("step %d: %d keys, want %d", step, len(tab.keys), len(keys))
		}
		if n := occupied(&tab); n != len(keys) {
			t.Fatalf("step %d: %d occupied slots for %d keys", step, n, len(keys))
		}
		for _, k := range pool {
			got, ok := tab.index(k)
			if want := at(k); (want >= 0) != ok || (ok && got != want) {
				t.Fatalf("step %d: index(%x) = %d, %v; want %d", step, k, got, ok, want)
			}
		}
	}
	for step := 0; step < 6000; step++ {
		k := pool[rng.Intn(len(pool))]
		switch i := at(k); {
		case i < 0:
			if got, added := tab.add(k); !added || got != len(keys) {
				t.Fatalf("step %d: add(%x) = %d, %v; want %d, true", step, k, got, added, len(keys))
			}
			keys = append(keys, k)
		case rng.Intn(4) == 0:
			tab.pop()
			keys = keys[:len(keys)-1]
		default:
			if got := tab.remove(k); got != i {
				t.Fatalf("step %d: remove(%x) = %d, want %d", step, k, got, i)
			}
			last := len(keys) - 1
			keys[i] = keys[last]
			keys = keys[:last]
			if rng.Intn(2) == 0 {
				check(step)
				tab.unremove(k, i)
				keys = append(keys, k) // k back to i, the key now at i to the end
				keys[i], keys[len(keys)-1] = k, keys[i]
			}
		}
		check(step)
	}
}

// TestDigitRun: digitRun reads the same run and, up to 18 digits, the
// same value as a byte-by-byte scan, from every offset of inputs that
// put bytes next to '0' and '9' (with and without the top bit) at every
// place of an eight-byte word.
func TestDigitRun(t *testing.T) {
	inputs := []string{
		"1234567,89,0,123456789012345678,9999999999999999999,1\n",
		"/0123456789:/9\xb0\xb9\xff0",
		"00000000000000000000000000000001",
		"",
		"7",
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := "0123456789/:,\n\r-+\"\xb0\xb9\x80\xff"
	for k := 0; k < 200; k++ {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		b := []byte(in)
		for p := 0; p <= len(b); p++ {
			end, want := p, int64(0)
			for ; end < len(b) && b[end] >= '0' && b[end] <= '9'; end++ {
				want = want*10 + int64(b[end]-'0')
			}
			v, q := digitRun(b, p)
			if q != end || (end-p <= 18 && v != want) {
				t.Fatalf("digitRun(%q, %d) = %d, %d; want %d, %d", b, p, v, q, want, end)
			}
		}
	}
}
