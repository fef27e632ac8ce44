// Package itemset provides the itemset machinery shared by the sequential
// Cumulate baseline and all six parallel algorithms: canonical itemset keys,
// candidate tables and the shared read-only candidate index (a triangular
// pair table for a dense C_2; otherwise hash point lookups plus the
// prefix-layout containment kernel that counts support),
// the Apriori candidate generation (join + prune) and k-subset enumeration.
//
// An itemset is a canonical []item.Item: strictly ascending, no duplicates.
package itemset

import (
	"encoding/binary"

	"pgarm/internal/item"
)

// Key packs a canonical itemset into a compact string usable as a map key.
// The encoding is 4 bytes per item, big-endian, so key ordering matches
// itemset lexicographic ordering.
func Key(items []item.Item) string {
	buf := make([]byte, 4*len(items))
	for i, it := range items {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(it))
	}
	return string(buf)
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
