package itemset

import (
	"math/bits"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// Table answers point lookups over a fixed list of canonical itemsets: which
// id, if any, is this itemset? HPGM's receiver asks it of every shipped unit
// (CountUnits), PGD/FGD duplicate selection of every ancestor candidate,
// candidate generation's prune of every (k-1)-subset and the incremental
// miner of every candidate it may seed from the prior border. Support
// counting asks a different question — which candidates does this
// transaction contain? — and Index answers that one.
//
// A Table is an open-addressed power-of-two slot array probed linearly. It
// keeps the sets it keys, by dense id, so a probe hashes the query in place
// and compares against stored items without building a map key, and a
// lookup performs zero heap allocations. It is sized once and never grows,
// and it is only read after BuildTable, so one Table may be shared by every
// goroutine of a node.
//
// A slot packs two fields into 32 bits: the low idBits hold the id + 1 (0
// marks an empty slot), and the bits above hold a tag, the top bits of the
// hash, which the home slot does not use. A probe compares items only when
// the tags match, so a miss — most of HPGM's probes — seldom reads a stored
// itemset.
type Table struct {
	sets   [][]item.Item
	slots  []uint32
	mask   uint64 // len(slots) - 1: a hash's home slot is h & mask
	idMask uint32 // the id field: 1<<idBits - 1
}

// BuildTable keys the canonical itemsets by their positions in sets. The
// slot array is a power of two, ≥ 2n, so at most half the slots ever fill
// and every probe sequence ends at an empty one; the id field is sized for
// ids up to len(sets). Each set walks its probe sequence once to the first
// empty slot. Candidate lists are duplicate-free by construction; if a
// caller passes duplicates anyway, the walk stops at the earlier copy and
// the first occurrence keeps the id. The slices are retained, not copied.
func BuildTable(sets [][]item.Item) *Table {
	size := 16
	for size < 2*len(sets) {
		size <<= 1
	}
	t := &Table{
		sets:   sets,
		slots:  make([]uint32, size),
		mask:   uint64(size - 1),
		idMask: 1<<bits.Len32(uint32(len(sets))) - 1,
	}
next:
	for i, items := range sets {
		h := flatHash(items)
		tag := t.tag(h)
		s := h & t.mask
		for ; t.slots[s] != 0; s = (s + 1) & t.mask {
			if v := t.slots[s]; v&^t.idMask == tag && item.Equal(sets[v&t.idMask-1], items) {
				continue next
			}
		}
		t.slots[s] = tag | uint32(i+1)
	}
	return t
}

// Lookup returns the id of items, or -1. It is pure, performs no heap
// allocation, and is safe for concurrent use.
func (t *Table) Lookup(items []item.Item) int32 { return t.find(items, flatHash(items)) }

// find is Lookup for a query whose flatHash is h.
func (t *Table) find(items []item.Item, h uint64) int32 {
	tag := t.tag(h)
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		v := t.slots[s]
		if v == 0 {
			return -1
		}
		if v&^t.idMask == tag {
			if id := int32(v&t.idMask) - 1; item.Equal(t.sets[id], items) {
				return id
			}
		}
	}
}

// tag is the tag field of a slot holding a set whose hash is h: the top 32
// hash bits with the id field cleared.
func (t *Table) tag(h uint64) uint32 { return uint32(h>>32) &^ t.idMask }

// flatHash is FNV-1a over 32-bit words, one multiply per item; each item's
// high half is folded into its low half first, so every item bit reaches the
// low hash bits that pick the home slot. It spreads the dense, sorted
// itemsets of one level less evenly than FNV over bytes but far more evenly
// than a well-mixed hash: on L_2 of R30F5 × 0.002 at 1 % a set sits 0.11
// slots past its home on average, against 0.020 under byte-wise FNV and 0.36
// under a 128-bit-multiply hash; only the latter measurably slowed candidate
// generation's prune, which probes in sorted order.
func flatHash(items []item.Item) uint64 {
	h := uint64(hashOffset)
	for _, it := range items {
		h = flatStep(h, it)
	}
	return h
}

// flatStep folds one item into a flatHash state, so a decoder can hash a
// unit's items as it reads them (CountUnits).
func flatStep(h uint64, it item.Item) uint64 {
	const prime64 = 1099511628211
	v := uint32(it)
	return (h ^ uint64(v^v>>16)) * prime64
}

// CountUnits is HPGM's receiver: it counts one batch of itemset units — each
// wire.AppendItems bytes, concatenated — as one Lookup per unit, adding one
// to counts[id] for every hit. It reads each unit once: every item is
// decoded under wire.Uvarint and wire.NextItem and folded into the probe's
// hash as it arrives, so the probe does not walk the unit again. It returns
// the units, items and hits it counted. A malformed unit ends the batch with
// the error wire.Dec.Items gives for it, after the units before it were
// counted — exactly what decoding the batch with Dec.Items and counting each
// unit with Lookup would do. counts needs an entry per keyed set. *unit is
// the caller's scratch for the decoded unit; nothing is allocated once it
// has grown.
func (t *Table) CountUnits(batch []byte, counts []int64, unit *[]item.Item) (units, items, hits int64, err error) {
	b := batch
	for len(b) > 0 {
		at := b
		n, w := wire.Uvarint(b)
		if w <= 0 {
			return units, items, hits, unitErr(at)
		}
		if b = b[w:]; n > uint64(len(b)) {
			return units, items, hits, unitErr(at)
		}
		buf, h, prev := (*unit)[:0], uint64(hashOffset), item.Item(0)
		for i := range int(n) {
			v, w := wire.Uvarint(b)
			if w <= 0 {
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
		*unit = buf
		units++
		items += int64(n)
		if id := t.find(buf, h); id >= 0 {
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
