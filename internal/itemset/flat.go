package itemset

import "pgarm/internal/item"

// flatProbe is the open-addressed id index behind Index and candidate
// generation's prune set: a power-of-two slot array holding candidate id + 1
// (0 = empty), probed linearly. Keys live with their owner, which keeps the
// canonical itemsets by dense id, so a probe hashes the query in place and
// compares against stored items without building a map key, and a lookup
// performs zero heap allocations. It is sized once for a known set count and
// never grows. It serves point lookups — HPGM's receiver, duplicate
// selection, candidate generation's prune — on every Index except a dense
// C_2, which answers them from its pair table; whole-transaction support
// counting goes through the prefix layout or the pair table instead
// (Index.CountContained).
type flatProbe struct {
	slots []int32 // candidate id + 1; 0 marks an empty slot
	mask  uint64
}

// flatHash is FNV-1a over the itemset's packed-key bytes (4 bytes per item,
// big-endian), computed without materializing the key.
func flatHash(items []item.Item) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range items {
		v := uint32(it)
		h = (h ^ uint64(v>>24)) * prime64
		h = (h ^ uint64(v>>16&0xff)) * prime64
		h = (h ^ uint64(v>>8&0xff)) * prime64
		h = (h ^ uint64(v&0xff)) * prime64
	}
	return h
}

// fill sizes the slot array for sets (power of two, ≥ 2n, so at most half
// the slots ever fill and every probe sequence ends at an empty one) and
// inserts every set under its position, walking its probe sequence once to
// the first empty slot. Candidate lists are duplicate-free by construction;
// if a caller passes duplicates anyway, the walk stops at the earlier copy
// and the first occurrence keeps the id.
func (f *flatProbe) fill(sets [][]item.Item) {
	size := 16
	for size < 2*len(sets) {
		size <<= 1
	}
	f.slots = make([]int32, size)
	f.mask = uint64(size - 1)
	for i, items := range sets {
		s := flatHash(items) & f.mask
		for f.slots[s] != 0 && !item.Equal(sets[f.slots[s]-1], items) {
			s = (s + 1) & f.mask
		}
		if f.slots[s] == 0 {
			f.slots[s] = int32(i) + 1
		}
	}
}

// findItems returns the id stored for items, or -1. sets is the owner's
// itemset list, indexed by dense id. Zero-allocation.
func (f *flatProbe) findItems(items []item.Item, sets [][]item.Item) int32 {
	if len(f.slots) == 0 {
		return -1
	}
	for s := flatHash(items) & f.mask; ; s = (s + 1) & f.mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if id := v - 1; item.Equal(sets[id], items) {
			return id
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
