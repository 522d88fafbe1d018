package model

// This file is the change-key delta layer: every Change has a canonical
// ChangeKey identifying the model element it touches, and a change list can
// be normalized and compacted under those keys. It is the same
// change-propagation idea the paper applies inside the GraphBLAS engines,
// lifted to the model so the layers above (the server's commit path, the
// WAL compactor) can reason about update streams as keyed deltas instead of
// opaque change lists: add+remove pairs on the same key supersede each
// other, and duplicates collapse (CompactionMask).

// KeyKind identifies the model element family a ChangeKey addresses. Unlike
// ChangeKind it is operation-free: KindAddLike and KindRemoveLike changes on
// the same edge share one key, which is what makes supersession detectable.
type KeyKind uint8

// The key kinds, one per entity or edge family.
const (
	KeyPost KeyKind = iota
	KeyComment
	KeyUser
	KeyFriendship
	KeyLike
)

// ChangeKey canonically identifies the model element a Change touches. Node
// keys use A (B is 0); the friendship key orders its endpoints (A ≤ B) so
// the two orientations of the undirected edge collide, and the like key is
// (user, comment). ChangeKey is comparable and suitable as a map key.
type ChangeKey struct {
	Kind KeyKind
	A, B ID
}

// Key returns the change's canonical key, built from the fields of the
// kind's family (the codec table): a node family keys on its id, an edge
// family on its two endpoints, a friendship's in ascending order.
func (ch *Change) Key() ChangeKey {
	f, ok := ch.Kind.Family()
	if !ok {
		// Unknown kinds key on themselves alone so they never alias a real
		// element; validation rejects them long before compaction runs.
		return ChangeKey{Kind: KeyKind(0xff), A: ID(ch.Kind)}
	}
	var buf [MaxFields]int64
	v := ch.AppendFields(buf[:0], f)
	switch f {
	case KeyFriendship:
		return ChangeKey{Kind: f, A: min(v[0], v[1]), B: max(v[0], v[1])}
	case KeyLike:
		return ChangeKey{Kind: f, A: v[0], B: v[1]}
	}
	return ChangeKey{Kind: f, A: v[0]}
}

// Normalize rewrites every change into its canonical form in place:
// friendship endpoints are ordered User1 ≤ User2 (the undirected edge's two
// spellings become one). The State, the engines and Snapshot.Apply accept
// either spelling, and Change.Key orders the endpoints itself; a
// normalized set adds that equal keys imply equal encodings, so the WAL
// compactor writes each surviving friendship in one spelling.
func (cs *ChangeSet) Normalize() {
	for i := range cs.Changes {
		ch := &cs.Changes[i]
		if f, _ := ch.Kind.Family(); f == KeyFriendship {
			if ch.Friendship.User1 > ch.Friendship.User2 {
				ch.Friendship.User1, ch.Friendship.User2 = ch.Friendship.User2, ch.Friendship.User1
			}
		}
	}
}

// CompactionMask reports, per change, whether it survives change-key
// compaction of the slice, or nil when every key occurs exactly once and
// nothing collapses. Node insertions deduplicate, keeping their first
// position: a node add must stay ahead of the edges that reference it.
// Each edge key's add/remove history reduces to its net effect. In a
// referentially valid history an edge key's operations alternate
// add/remove, so the net effect follows from the first and last operation
// alone:
//
//	first add,    last add    → one add (edge absent before, present after)
//	first add,    last remove → nothing (absent before and after)
//	first remove, last remove → one remove (present before, absent after)
//	first remove, last add    → nothing (present before and after)
//
// Surviving edge operations keep their *last* position, which is after
// every node they reference (the node existed before the edge's final
// operation). Compaction therefore preserves referential validity and the
// final applied state, but not intermediate states: it is meant for
// replay-shaped histories (WAL segments), not for live commits whose
// intermediate answers readers observed. The WAL compactor applies the
// mask while keeping batch boundaries and sequence numbers intact. Key
// orders friendship endpoints itself, so the input need not be
// normalized.
func CompactionMask(changes []Change) []bool {
	type span struct {
		first, last int  // positions of the key's first/last operation
		firstRem    bool // first operation removes
	}
	spans := make(map[ChangeKey]*span, len(changes))
	keys := 0
	for i := range changes {
		ch := &changes[i]
		k := ch.Key()
		sp, ok := spans[k]
		if !ok {
			spans[k] = &span{first: i, last: i, firstRem: ch.Kind.IsRemoval()}
			keys++
			continue
		}
		sp.last = i
	}
	if keys == len(changes) {
		return nil
	}
	// A key survives at one position: node keys at their first occurrence,
	// edge keys at their last — and only when the first and last operation
	// agree on add-vs-remove (otherwise the key nets out entirely).
	mask := make([]bool, len(changes))
	for i := range changes {
		ch := &changes[i]
		k := ch.Key()
		sp := spans[k]
		switch k.Kind {
		case KeyPost, KeyComment, KeyUser:
			mask[i] = i == sp.first
		default:
			mask[i] = i == sp.last && ch.Kind.IsRemoval() == sp.firstRem
		}
	}
	return mask
}
