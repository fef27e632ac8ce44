package itemset

import "pgarm/internal/item"

// flatProbe is the open-addressed id index behind Index and candidate
// generation's prune set: a power-of-two slot array holding candidate id + 1
// (0 = empty), probed linearly. Keys live with their owner, which keeps the
// canonical itemsets by dense id, so a probe hashes the query in place and
// compares against stored items without building a map key, and a lookup
// performs zero heap allocations. It is sized once for a known set count and
// never grows. It serves point lookups — HPGM's receiver, duplicate
// selection, candidate generation's prune; whole-transaction support
// counting goes through the prefix layout instead (Index.CountContained).
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

// init sizes the slot array for n entries (power of two, ≥ 2n), so at most
// half the slots ever fill and every probe sequence ends at an empty one.
func (f *flatProbe) init(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	f.slots = make([]int32, size)
	f.mask = uint64(size - 1)
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

// place writes id, whose itemset is known to be absent, into the first free
// slot of its probe sequence. The caller must not exceed init's n entries.
func (f *flatProbe) place(id int32, items []item.Item) {
	s := flatHash(items) & f.mask
	for f.slots[s] != 0 {
		s = (s + 1) & f.mask
	}
	f.slots[s] = id + 1
}
