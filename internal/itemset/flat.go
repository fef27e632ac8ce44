package itemset

import (
	"math/bits"

	"pgarm/internal/item"
)

// flatProbe is the open-addressed id index behind Index and candidate
// generation's prune set: a power-of-two slot array probed linearly. Keys
// live with their owner, which keeps the canonical itemsets by dense id, so
// a probe hashes the query in place and compares against stored items without
// building a map key, and a lookup performs zero heap allocations. It is
// sized once for a known set count and never grows. It serves point lookups —
// HPGM's receiver (Index.CountUnits), duplicate selection, candidate
// generation's prune — on every Index except a dense C_2, which answers them
// from its pair table; whole-transaction support counting goes through the
// prefix layout or the pair table instead (Index.CountContained).
//
// A slot packs two fields into 32 bits: the low idBits hold the id + 1 (0
// marks an empty slot), and the bits above hold a tag, the top bits of the
// hash, which the home slot does not use. A probe compares items only when
// the tags match, so a miss — most of HPGM's probes — seldom reads a stored
// itemset.
type flatProbe struct {
	slots  []uint32
	mask   uint64 // len(slots) - 1: a hash's home slot is h & mask
	idMask uint32 // the id field: 1<<idBits - 1
}

// flatHash is FNV-1a over 32-bit words, one multiply per item; each item's
// high half is folded into its low half first, so every item bit reaches the
// low hash bits that pick the home slot. It spreads the dense, sorted
// itemsets of one level less evenly than FNV over bytes but far more evenly
// than a well-mixed hash: on L_2 of R30F5 × 0.002 at 1 % a set sits 0.11
// slots past its home on average, against 0.020 under byte-wise FNV and 0.36
// under a 128-bit-multiply hash; only the latter measurably slowed candidate
// generation's prune, which probes in sorted order.
func flatHash(items []item.Item) uint64 {
	h := uint64(hashOffset)
	for _, it := range items {
		h = flatStep(h, it)
	}
	return h
}

// flatStep folds one item into a flatHash state, so a decoder can hash a
// unit's items as it reads them (Index.CountUnits).
func flatStep(h uint64, it item.Item) uint64 {
	const prime64 = 1099511628211
	v := uint32(it)
	return (h ^ uint64(v^v>>16)) * prime64
}

// tag is the tag field of a slot holding a set whose hash is h: the top 32
// hash bits with the id field cleared.
func (f *flatProbe) tag(h uint64) uint32 { return uint32(h>>32) &^ f.idMask }

// fill sizes the slot array for sets (power of two, ≥ 2n, so at most half
// the slots ever fill and every probe sequence ends at an empty one), sizes
// the id field for ids up to len(sets) and inserts every set under its
// position, walking its probe sequence once to the first empty slot.
// Candidate lists are duplicate-free by construction; if a caller passes
// duplicates anyway, the walk stops at the earlier copy and the first
// occurrence keeps the id.
func (f *flatProbe) fill(sets [][]item.Item) {
	size := 16
	for size < 2*len(sets) {
		size <<= 1
	}
	f.slots = make([]uint32, size)
	f.mask = uint64(size - 1)
	f.idMask = 1<<bits.Len32(uint32(len(sets))) - 1
next:
	for i, items := range sets {
		h := flatHash(items)
		tag := f.tag(h)
		s := h & f.mask
		for ; f.slots[s] != 0; s = (s + 1) & f.mask {
			if v := f.slots[s]; v&^f.idMask == tag && item.Equal(sets[v&f.idMask-1], items) {
				continue next
			}
		}
		f.slots[s] = tag | uint32(i+1)
	}
}

// findItems returns the id stored for items, or -1. sets is the owner's
// itemset list, indexed by dense id. Zero-allocation.
func (f *flatProbe) findItems(items []item.Item, sets [][]item.Item) int32 {
	return f.find(items, flatHash(items), sets)
}

// find is findItems for a query whose flatHash is h.
func (f *flatProbe) find(items []item.Item, h uint64, sets [][]item.Item) int32 {
	if len(f.slots) == 0 {
		return -1
	}
	tag := f.tag(h)
	for s := h & f.mask; ; s = (s + 1) & f.mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if v&^f.idMask == tag {
			if id := int32(v&f.idMask) - 1; item.Equal(sets[id], items) {
				return id
			}
		}
	}
}

// GenFlat is Gen without the per-candidate allocations: the sorted L_{k-1}
// is joined and pruned into one flat arena (one backing array instead of one
// allocation per candidate), and prune membership is an open-addressed
// probe over the sorted sets keyed by the FNV hash, replacing the map of
// packed Key strings. The output is Gen's, order included.
//
// Every miner hands over the L_{k-1} its barrier recorded, which is already
// in canonical order, so prev is only checked (one linear pass) and read in
// place; unsorted input is copied and sorted first.
func GenFlat(prev [][]item.Item) [][]item.Item {
	if len(prev) == 0 {
		return nil
	}
	k1 := len(prev[0])
	k := k1 + 1
	sets := prev
	if !setsSorted(sets) {
		sets = make([][]item.Item, len(prev))
		copy(sets, prev)
		SortSets(sets)
	}

	var prune flatProbe
	prune.fill(sets)

	// Surviving candidates are appended to the arena and sliced out after
	// it stops growing, so the join performs O(1) allocations however many
	// candidates it emits.
	scratch := make([]item.Item, 0, k)
	sub := make([]item.Item, 0, k1)
	var arena []item.Item
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !item.Equal(sets[i][:k1-1], sets[j][:k1-1]) {
				break // sorted order: no further joins for i
			}
			scratch = append(scratch[:0], sets[i]...)
			scratch = append(scratch, sets[j][k1-1])
			ok := true
			for drop := 0; drop < k-2; drop++ {
				sub = sub[:0]
				for x := range scratch {
					if x != drop {
						sub = append(sub, scratch[x])
					}
				}
				if prune.findItems(sub, sets) < 0 {
					ok = false
					break
				}
			}
			if ok {
				arena = append(arena, scratch...)
			}
		}
	}
	nc := len(arena) / k
	if nc == 0 {
		return nil
	}
	out := make([][]item.Item, nc)
	for c := 0; c < nc; c++ {
		out[c] = arena[c*k : (c+1)*k : (c+1)*k]
	}
	return out
}

// setsSorted reports whether sets is in strictly ascending lexicographic
// order.
func setsSorted(sets [][]item.Item) bool {
	for i := 1; i < len(sets); i++ {
		if item.Compare(sets[i-1], sets[i]) >= 0 {
			return false
		}
	}
	return true
}
