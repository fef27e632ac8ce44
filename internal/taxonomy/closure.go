package taxonomy

import (
	"math/bits"

	"pgarm/internal/item"
)

// Closure emits the kept part of a transaction's ancestor closure in a fixed
// slot order, without a sort. It is a slot table over the hierarchy: slot[i]
// is item i's output slot, or -1 when i is not kept, and out[s] is the value
// slot s emits. Slots number the kept items 0..len(out)-1, so a bitset of
// Words() words holds one transaction's kept closure.
//
// Extend marks the slot of every kept item on the parent chain of every
// transaction item, then appends out[s] for each marked slot in ascending
// slot order. A walk stops at the first kept item whose slot is already
// marked: the walk that marked it went on up its whole chain, so every kept
// ancestor above it is marked too. That invariant holds by induction over the
// walks of one transaction, and it is what makes a transaction of siblings
// cost one chain walk plus one step per further sibling.
//
// A Closure is read-only once built and safe for concurrent use; each caller
// brings its own bitset.
type Closure struct {
	parent []item.Item // the hierarchy's parent vector, shared
	slot   []int32
	out    []item.Item
}

// NewClosure builds a closure over t from a slot table of t.NumItems()
// entries (-1 for items not kept) and the value each slot emits. Slots must
// lie in [0, len(out)). Both slices are kept, not copied.
func NewClosure(t *Taxonomy, slot []int32, out []item.Item) *Closure {
	if len(slot) != t.NumItems() {
		panic("taxonomy: closure slot table does not cover the hierarchy")
	}
	return &Closure{parent: t.parent, slot: slot, out: out}
}

// KeepClosure builds the closure that keeps exactly the items flagged in
// keep, one slot per kept item in ascending id order, each emitting its own
// id: Extend then returns ExtendTransaction(txn) ∩ keep, canonical.
func KeepClosure(t *Taxonomy, keep []bool) *Closure {
	slot := make([]int32, len(keep))
	for i, k := range keep {
		if k {
			slot[i] = 1
		}
	}
	return numberSlots(t, slot)
}

// SetsClosure is KeepClosure over the items that appear in some set of sets
// (a pass's candidates), built without an intermediate flag vector.
func SetsClosure(t *Taxonomy, sets [][]item.Item) *Closure {
	slot := make([]int32, t.NumItems())
	for _, s := range sets {
		for _, x := range s {
			slot[x] = 1
		}
	}
	return numberSlots(t, slot)
}

// numberSlots turns marks (slot[i] != 0 for a kept item) into slots
// numbered in ascending id order, each emitting its item.
func numberSlots(t *Taxonomy, slot []int32) *Closure {
	n := 0
	for _, s := range slot {
		if s != 0 {
			n++
		}
	}
	out := make([]item.Item, 0, n)
	for i, s := range slot {
		slot[i] = -1
		if s != 0 {
			slot[i] = int32(len(out))
			out = append(out, item.Item(i))
		}
	}
	return NewClosure(t, slot, out)
}

// Keeps reports whether the closure keeps exactly the items flagged in keep,
// one flag per item of the hierarchy.
func (c *Closure) Keeps(keep []bool) bool {
	if len(keep) != len(c.slot) {
		return false
	}
	for i, k := range keep {
		if k != (c.slot[i] >= 0) {
			return false
		}
	}
	return true
}

// Words returns the length of the bitset Extend needs.
func (c *Closure) Words() int { return (len(c.out) + 63) / 64 }

// Extend appends the kept closure of txn to dst in ascending slot order and
// returns the extended slice. Duplicates in txn, and items together with
// their own ancestors, are emitted once. set is the caller's scratch bitset
// of Words() words; it must be all zero on entry and is all zero again on
// return. Extend does not allocate beyond growing dst.
func (c *Closure) Extend(dst []item.Item, txn []item.Item, set []uint64) []item.Item {
	lo, hi := len(set), -1
	for _, x := range txn {
		for cur := x; cur != item.None; cur = c.parent[cur] {
			s := c.slot[cur]
			if s < 0 {
				continue
			}
			w, b := int(s>>6), uint64(1)<<(s&63)
			if set[w]&b != 0 {
				break
			}
			set[w] |= b
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for w := lo; w <= hi; w++ {
		word := set[w]
		set[w] = 0
		for word != 0 {
			dst = append(dst, c.out[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return dst
}

// CountClosure adds one to counts[y] for every item y of txn's ancestor
// closure, once per transaction however many of its items share y. seen is
// the caller's scratch bitset over the item universe, of ItemWords() words,
// all zero on entry and again on return. As in Closure.Extend, a walk
// stops at the first ancestor already marked; a second round of walks clears
// the marks, stopping at the first one already cleared.
func (t *Taxonomy) CountClosure(counts []int64, txn []item.Item, seen []uint64) {
	for _, x := range txn {
		for cur := x; cur != item.None; cur = t.parent[cur] {
			w, b := cur>>6, uint64(1)<<(cur&63)
			if seen[w]&b != 0 {
				break
			}
			seen[w] |= b
			counts[cur]++
		}
	}
	for _, x := range txn {
		for cur := x; cur != item.None; cur = t.parent[cur] {
			w, b := cur>>6, uint64(1)<<(cur&63)
			if seen[w]&b == 0 {
				break
			}
			seen[w] &^= b
		}
	}
}

// ItemWords returns the length of the bitset CountClosure needs.
func (t *Taxonomy) ItemWords() int { return (len(t.parent) + 63) / 64 }
