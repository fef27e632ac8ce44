package itemset

import "pgarm/internal/item"

// Index is an immutable itemset -> dense-id structure over a fixed candidate
// list. It carries no counts and no probe counter, so one Index can be
// shared read-only by every node of a simulated cluster while each node
// keeps its own count vector — the memory layout that lets a 16-node
// in-process cluster replicate multi-million-entry candidate sets (NPGM, and
// the TGD/PGD/FGD duplicated tables) without 16 physical copies.
//
// An Index answers two questions. Point lookups (Lookup) go through an
// open-addressed flat probe: the query is hashed in place and compared
// against the stored itemsets. Support counting (CountContained)
// walks a prefix layout of the same sets and never forms a subset no indexed
// set starts with. Neither allocates.
type Index struct {
	idx  flatProbe
	pre  prefixLayout
	sets [][]item.Item
}

// BuildIndex indexes the canonical itemsets; ids are positions in sets.
// The slices are retained, not copied.
func BuildIndex(sets [][]item.Item) *Index {
	ix := &Index{sets: sets}
	ix.idx.init(len(sets))
	for i := range sets {
		// Candidate lists are duplicate-free by construction; if a caller
		// passes duplicates anyway, the first occurrence keeps the id.
		if ix.idx.findItems(sets[i], sets) < 0 {
			ix.idx.place(int32(i), sets[i])
		}
	}
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
	return ix.idx.findItems(items, ix.sets)
}
