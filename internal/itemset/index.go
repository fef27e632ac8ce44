package itemset

import (
	"encoding/binary"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// Index is an immutable itemset -> dense-id structure over a fixed candidate
// list. It carries no counts and no probe counter, so one Index can be
// shared read-only by every node of a simulated cluster while each node
// keeps its own count vector — the memory layout that lets a 16-node
// in-process cluster replicate multi-million-entry candidate sets (the
// H-HPGM engine's duplicated tables, NPGM's whole C_k among them) without
// 16 physical copies.
//
// An Index answers two questions, point lookups (Lookup) and support
// counting (CountContained), from one of two structures that BuildIndex
// picks by the sets' own fill ratio. A dense C_2 — 2-itemsets covering at
// least half the pairs of their n distinct items — keeps only a triangular
// pair table, which answers both with direct reads. Every other index keeps
// an open-addressed flat probe for lookups (the query is hashed in place and
// compared against the stored itemsets) and a prefix layout for counting,
// which never forms a subset no indexed set starts with; the layout holds
// its children as item lists or as rank bitsets, whichever takes fewer
// bytes. Neither allocates.
type Index struct {
	pairs pairTable // a dense C_2; when built, idx and pre stay empty
	idx   flatProbe
	pre   prefixLayout
	sets  [][]item.Item
}

// BuildIndex indexes the canonical itemsets; ids are positions in sets, and a
// duplicated set keeps its first occurrence's id. The slices are retained,
// not copied.
func BuildIndex(sets [][]item.Item) *Index { return buildIndex(sets, formAuto) }

// buildIndex is BuildIndex with the prefix layout's child form forced, for
// tests; formAuto picks it by size.
func buildIndex(sets [][]item.Item, form layoutForm) *Index {
	ix := &Index{sets: sets}
	if ix.pairs.build(sets) {
		return ix
	}
	ix.idx.fill(sets)
	ix.pre.build(sets, form)
	return ix
}

// Bytes returns the bytes the index holds beyond the itemsets it retains:
// the pair table, or the flat probe and the prefix layout in the child form
// it was built with.
func (ix *Index) Bytes() int64 {
	return 4*int64(len(ix.pairs.slot)+len(ix.pairs.pair)+len(ix.idx.slots)) + ix.pre.size
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

// CountUnits is HPGM's receiver: it counts one batch of itemset units — each
// wire.AppendItems bytes, concatenated — as one Lookup per unit, adding one
// to counts[id] for every hit. It reads each unit once: every item is
// decoded under wire.NextItem and folded into the flat probe's hash as it
// arrives, so the probe does not walk the unit again; a dense C_2 answers
// from its pair table. It returns the units, items and hits it counted. A
// malformed unit ends the batch with the error wire.Dec.Items gives for it,
// after the units before it were counted — exactly what decoding the batch
// with Dec.Items and counting each unit with Lookup would do. st.unit holds
// the decoded unit; nothing is allocated once it has grown.
func (ix *Index) CountUnits(batch []byte, counts []int64, st *Stamps) (units, items, hits int64, err error) {
	b := batch
	for len(b) > 0 {
		at := b
		n, w := uint64(b[0]), 1
		if n >= 0x80 {
			if n, w = binary.Uvarint(b); w <= 0 {
				return units, items, hits, unitErr(at)
			}
		}
		if b = b[w:]; n > uint64(len(b)) {
			return units, items, hits, unitErr(at)
		}
		buf, h, prev := st.unit[:0], uint64(hashOffset), item.Item(0)
		for i := range int(n) {
			v, w := uint64(0), 0
			if len(b) > 0 && b[0] < 0x80 {
				v, w = uint64(b[0]), 1
			} else if v, w = binary.Uvarint(b); w <= 0 {
				return units, items, hits, unitErr(at)
			}
			b = b[w:]
			var ok bool
			if prev, ok = wire.NextItem(prev, v, i == 0); !ok {
				return units, items, hits, unitErr(at)
			}
			buf = append(buf, prev)
			h = flatStep(h, prev)
		}
		st.unit = buf
		units++
		items += int64(n)
		var id int32
		if ix.pairs.pair != nil {
			id = ix.pairs.lookup(buf)
		} else {
			id = ix.idx.find(buf, h, ix.sets)
		}
		if id >= 0 {
			counts[id]++
			hits++
		}
	}
	return units, items, hits, nil
}

// unitErr is the error wire.Dec.Items gives for the malformed unit at the
// head of b.
func unitErr(b []byte) error {
	d := wire.NewDec(b)
	d.Items(nil)
	d.Fail("itemset: malformed unit") // kept only if Dec.Items accepted it
	return d.Err()
}
