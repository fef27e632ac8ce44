package itemset

import (
	"sort"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// Counted pairs an itemset with a support count; the unit the coordinator
// gathers and the miner reports.
type Counted struct {
	Items []item.Item
	Count int64
}

// SortCounted orders counted itemsets by size, then lexicographically — the
// order of a result's levels laid end to end.
func SortCounted(cs []Counted) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i].Items, cs[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return item.Compare(a, b) < 0
	})
}

// AppendCounted appends cs in the wire.AppendCounted encoding.
func AppendCounted(dst []byte, cs []Counted) []byte {
	sets := make([][]item.Item, len(cs))
	counts := make([]int64, len(cs))
	for i, c := range cs {
		sets[i], counts[i] = c.Items, c.Count
	}
	return wire.AppendCounted(dst, sets, counts)
}

// ParseCounted reads one wire.AppendCounted block from d; the caller checks
// d's error.
func ParseCounted(d *wire.Dec) []Counted {
	sets, counts := d.Counted()
	cs := make([]Counted, len(sets))
	for i := range sets {
		cs[i] = Counted{Items: sets[i], Count: counts[i]}
	}
	return cs
}

// Levels is the result shape every itemset miner produces — sequential
// Cumulate, the incremental miner and all parallel engines embed it, so the
// accessors below exist once.
type Levels struct {
	// Large[k-1] holds the large k-itemsets with their exact support counts,
	// lexicographically ordered.
	Large [][]Counted
}

// LargeK returns the large k-itemsets, or nil when the run ended before k.
func (l *Levels) LargeK(k int) []Counted {
	if k < 1 || k > len(l.Large) {
		return nil
	}
	return l.Large[k-1]
}

// All returns every large itemset of every size, flattened (the input to
// rule derivation).
func (l *Levels) All() []Counted {
	var out []Counted
	for _, lk := range l.Large {
		out = append(out, lk...)
	}
	return out
}

// SupportIndex builds a lookup from itemset key to support count over every
// large itemset (all sizes). Rule derivation uses it for confidence.
func (l *Levels) SupportIndex() map[string]int64 {
	idx := make(map[string]int64)
	for _, lk := range l.Large {
		for _, c := range lk {
			idx[Key(c.Items)] = c.Count
		}
	}
	return idx
}

// Equal reports whether two results are bit-identical: the same levels, the
// same itemsets in the same order, the same counts.
func (l *Levels) Equal(o *Levels) bool {
	if len(l.Large) != len(o.Large) {
		return false
	}
	for k, lk := range l.Large {
		ok := o.Large[k]
		if len(lk) != len(ok) {
			return false
		}
		for i := range lk {
			if lk[i].Count != ok[i].Count || !item.Equal(lk[i].Items, ok[i].Items) {
				return false
			}
		}
	}
	return true
}
