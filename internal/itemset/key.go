// Package itemset provides the itemset machinery shared by the sequential
// Cumulate baseline and all six parallel algorithms: canonical itemset keys,
// candidate tables and the shared read-only candidate index (hash point
// lookups plus the prefix-layout containment kernel that counts support),
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
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range items {
		v := uint32(it)
		for s := 0; s < 32; s += 8 {
			h ^= uint64((v >> s) & 0xff)
			h *= prime64
		}
	}
	return h
}
