package itemset

import "pgarm/internal/item"

// Index is an immutable itemset -> dense-id structure over a fixed candidate
// list. It carries no counts and no probe counter, so one Index can be
// shared read-only by every node of a simulated cluster while each node
// keeps its own count vector — the memory layout that lets a 16-node
// in-process cluster replicate multi-million-entry candidate sets (NPGM, and
// the TGD/PGD/FGD duplicated tables) without 16 physical copies.
//
// An Index answers two questions, point lookups (Lookup) and support
// counting (CountContained), from one of two structures that BuildIndex
// picks by the sets' own fill ratio. A dense C_2 — 2-itemsets covering at
// least half the pairs of their n distinct items — keeps only a triangular
// pair table, which answers both with direct reads. Every other index keeps
// an open-addressed flat probe for lookups (the query is hashed in place and
// compared against the stored itemsets) and a prefix layout for counting,
// which never forms a subset no indexed set starts with. Neither allocates.
type Index struct {
	pairs pairTable // a dense C_2; when built, idx and pre stay empty
	idx   flatProbe
	pre   prefixLayout
	sets  [][]item.Item
}

// BuildIndex indexes the canonical itemsets; ids are positions in sets, and a
// duplicated set keeps its first occurrence's id. The slices are retained,
// not copied.
func BuildIndex(sets [][]item.Item) *Index {
	ix := &Index{sets: sets}
	if ix.pairs.build(sets) {
		return ix
	}
	ix.idx.fill(sets)
	ix.pre.build(sets)
	return ix
}

// Len returns the number of indexed itemsets.
func (ix *Index) Len() int { return len(ix.sets) }

// Items returns the itemset with dense id. Shared storage; do not modify.
func (ix *Index) Items(id int32) []item.Item { return ix.sets[id] }

// Lookup returns the id of a canonical itemset, or -1. It is pure, performs
// no heap allocation, and is safe for concurrent use.
func (ix *Index) Lookup(items []item.Item) int32 {
	if ix.pairs.pair != nil {
		return ix.pairs.lookup(items)
	}
	return ix.idx.findItems(items, ix.sets)
}
