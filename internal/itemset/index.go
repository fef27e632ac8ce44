package itemset

import "pgarm/internal/item"

// Index is the support-counting structure over a fixed candidate list: it
// answers "which candidates does this transaction contain?"
// (CountContained), and nothing else — a point lookup of one itemset goes
// through a Table. It carries no counts and no probe counter, so one Index
// can be shared read-only by every node of a simulated cluster while each
// node keeps its own count vector — the memory layout that lets a 16-node
// in-process cluster replicate multi-million-entry candidate sets (the
// H-HPGM engine's duplicated tables, NPGM's whole C_k among them) without
// 16 physical copies.
//
// BuildIndex picks one of two structures by the sets' own fill ratio. A
// dense C_2 — 2-itemsets covering at least half the pairs of their n
// distinct items — is a triangular pair table, read once per pair of a
// transaction's indexed items. Every other list is a prefix layout, which
// never forms a subset no indexed set starts with; the layout holds its
// children as item lists or as rank bitsets, whichever takes fewer bytes.
// Neither allocates.
type Index struct {
	pairs pairTable // a dense C_2; when built, pre stays empty
	pre   prefixLayout
	n     int
}

// NewIndex indexes the candidate list s; ids are positions in s. It checks
// s's contract first, panicking on a violation. The sets are read, not
// retained.
func NewIndex(s Sets) *Index { return buildIndex(s, formAuto) }

// BuildIndex is NewIndex over slices, for the benchmark harness only until
// its port to Sets (ROADMAP item 1).
func BuildIndex(sets [][]item.Item) *Index { return NewIndex(FromSlices(sets)) }

// buildIndex is NewIndex with the prefix layout's child form forced, for
// tests; formAuto picks it by size.
func buildIndex(s Sets, form layoutForm) *Index {
	maxItem := s.check()
	ix := &Index{n: s.Len()}
	if !ix.pairs.build(s, maxItem) {
		ix.pre.build(s, maxItem, form)
	}
	return ix
}

// Bytes returns the bytes the counting structure holds: the pair table, or
// the prefix layout in the child form it was built with. It is what a
// replicated candidate list costs a node beyond the itemsets themselves.
func (ix *Index) Bytes() int64 {
	return 4*int64(len(ix.pairs.slot)+len(ix.pairs.pair)) + ix.pre.size
}

// Len returns the number of indexed itemsets: the length of a count vector
// CountContained adds to.
func (ix *Index) Len() int { return ix.n }
