package itemset

import "pgarm/internal/item"

// flatProbe is the open-addressed id index shared by Table and Index: a
// power-of-two slot array holding candidate id + 1 (0 = empty), probed
// linearly. Keys live with their owner — Table and Index both keep the
// canonical itemsets by dense id — so a probe hashes the query in place and
// compares against stored items (or their packed-key form) without building
// a map key, and a lookup performs zero heap allocations. It serves point
// lookups — HPGM's receiver, duplicate selection, candidate generation's
// prune; whole-transaction support counting goes through the prefix layout
// instead (Index.CountContained).
type flatProbe struct {
	slots []int32 // candidate id + 1; 0 marks an empty slot
	mask  uint64
	used  int
}

// flatHash is FNV-1a over the itemset's packed-key bytes (4 bytes per item,
// big-endian), computed without materializing the key. flatHashKey over the
// packed form yields the identical value, so items-keyed and packed-keyed
// probes address the same slots.
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

// flatHashKey hashes a packed key (string or byte slice) to the same value
// flatHash produces for the corresponding itemset.
func flatHashKey[T ~string | ~[]byte](key T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return h
}

// keyEqualsItems reports whether a packed key encodes exactly items, without
// decoding into a scratch slice.
func keyEqualsItems[T ~string | ~[]byte](key T, items []item.Item) bool {
	if len(key) != 4*len(items) {
		return false
	}
	for i, it := range items {
		v := uint32(it)
		o := 4 * i
		if key[o] != byte(v>>24) || key[o+1] != byte(v>>16) ||
			key[o+2] != byte(v>>8) || key[o+3] != byte(v) {
			return false
		}
	}
	return true
}

// init sizes the slot array for n entries (power of two, ≥ 2n).
func (f *flatProbe) init(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	f.slots = make([]int32, size)
	f.mask = uint64(size - 1)
	f.used = 0
}

// findItems returns the id stored for items, or -1. sets maps dense id to
// stored itemset. Zero-allocation.
func (f *flatProbe) findItems(items []item.Item, get func(int32) []item.Item) int32 {
	if len(f.slots) == 0 {
		return -1
	}
	for s := flatHash(items) & f.mask; ; s = (s + 1) & f.mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if id := v - 1; item.Equal(get(id), items) {
			return id
		}
	}
}

// findKey is findItems for a pre-packed key.
func (f *flatProbe) findKey(key string, get func(int32) []item.Item) int32 {
	if len(f.slots) == 0 {
		return -1
	}
	for s := flatHashKey(key) & f.mask; ; s = (s + 1) & f.mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if id := v - 1; keyEqualsItems(key, get(id)) {
			return id
		}
	}
}

// findPacked is findKey for a byte-slice packed key.
func (f *flatProbe) findPacked(key []byte, get func(int32) []item.Item) int32 {
	if len(f.slots) == 0 {
		return -1
	}
	for s := flatHashKey(key) & f.mask; ; s = (s + 1) & f.mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if id := v - 1; keyEqualsItems(key, get(id)) {
			return id
		}
	}
}

// insert stores id for an itemset known to be absent, growing at 50% load.
func (f *flatProbe) insert(id int32, get func(int32) []item.Item) {
	if 2*(f.used+1) > len(f.slots) {
		f.rehash(2*len(f.slots), get)
	}
	f.place(id, get(id))
	f.used++
}

// place writes id into the first free slot of its probe sequence.
func (f *flatProbe) place(id int32, items []item.Item) {
	s := flatHash(items) & f.mask
	for f.slots[s] != 0 {
		s = (s + 1) & f.mask
	}
	f.slots[s] = id + 1
}

// rehash rebuilds the slot array at the given size (cold path).
func (f *flatProbe) rehash(size int, get func(int32) []item.Item) {
	if size < 16 {
		size = 16
	}
	old := f.slots
	f.slots = make([]int32, size)
	f.mask = uint64(size - 1)
	for _, v := range old {
		if v != 0 {
			f.place(v-1, get(v-1))
		}
	}
}
