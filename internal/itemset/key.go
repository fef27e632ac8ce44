// Package itemset provides the itemset machinery shared by the sequential
// Cumulate baseline and all six parallel algorithms: canonical itemset keys,
// one read-only structure per question asked of a candidate list — Index
// counts support ("which candidates does this transaction contain?": a
// triangular pair table for a dense C_2, otherwise the prefix-layout
// containment kernel) and Table answers point lookups ("which candidate is
// this itemset?", by hash) — the Apriori candidate generation (join +
// prune) and k-subset enumeration.
//
// An itemset is a canonical []item.Item: strictly ascending, no duplicates.
package itemset

import (
	"encoding/binary"
	"slices"

	"pgarm/internal/item"
)

// AppendKey appends the packed key of a canonical itemset to dst and returns
// the extended buffer: 4 bytes per item, big-endian, so key ordering matches
// itemset lexicographic ordering. It is the one key encoder; a caller that
// looks keys up in a map[string]V through one reused buffer, as
// m[string(buf)], allocates nothing per lookup.
func AppendKey(dst []byte, items []item.Item) []byte {
	dst = slices.Grow(dst, 4*len(items))
	for _, it := range items {
		dst = binary.BigEndian.AppendUint32(dst, uint32(it))
	}
	return dst
}

// Key is AppendKey as a string: one allocation for itemsets of up to 16
// items.
func Key(items []item.Item) string {
	var buf [64]byte
	return string(AppendKey(buf[:0], items))
}

// Hash computes a stable FNV-1a style hash of a canonical itemset. It is the
// hash function HPGM applies to whole itemsets and the H-HPGM family applies
// to root vectors; stability across processes matters for the TCP fabric.
func Hash(items []item.Item) uint64 {
	h := uint64(hashOffset)
	for _, it := range items {
		h = hashStep(h, it)
	}
	return h
}

// hashOffset is Hash's state before any item.
const hashOffset = 14695981039346656037

// hashStep folds one item into a Hash state: its four bytes, low byte first.
// Hash is hashStep over the items in order, so a caller that keeps the state
// of a prefix (Subsets) extends it by one item at a time.
func hashStep(h uint64, it item.Item) uint64 {
	const prime64 = 1099511628211
	v := uint64(uint32(it))
	h = (h ^ v&0xff) * prime64
	h = (h ^ v>>8&0xff) * prime64
	h = (h ^ v>>16&0xff) * prime64
	return (h ^ v>>24) * prime64
}
