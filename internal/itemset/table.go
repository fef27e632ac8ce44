package itemset

import (
	"fmt"
	"sort"

	"pgarm/internal/item"
)

// Candidate is one candidate itemset with its running support count
// (the paper's sup_cou field).
type Candidate struct {
	Items []item.Item
	Count int64
}

// Table is a candidate itemset table with support counters and probe
// accounting, for a node that answers point lookups: HPGM's receiver is
// handed one k-itemset per unit and looks it up. Each lookup is one probe —
// the k-subsets offered to the node's candidate table, which Figure 15 of
// the paper plots per node to show load distribution. (Nodes that count
// whole transactions use Index.CountContained and account the same quantity
// in closed form, Choose(|t'|, k).)
//
// Lookups go through an open-addressed flat index keyed by the candidates'
// packed-key form, so Lookup/LookupKey/LookupPacked allocate nothing.
//
// Tables are owned by a single node goroutine and are not safe for
// concurrent mutation.
type Table struct {
	cands  []Candidate
	idx    flatProbe
	probes int64
}

// NewTable returns an empty table sized for roughly n candidates.
func NewTable(n int) *Table {
	t := &Table{cands: make([]Candidate, 0, n)}
	t.idx.init(n)
	return t
}

// itemsOf maps a dense id to its stored canonical itemset.
func (t *Table) itemsOf(id int32) []item.Item { return t.cands[id].Items }

// Add inserts a candidate with zero count, returning its dense id. Adding an
// itemset already present returns the existing id. The itemset must be
// canonical; Add stores its own copy.
func (t *Table) Add(items []item.Item) int32 {
	if id := t.idx.findItems(items, t.itemsOf); id >= 0 {
		return id
	}
	id := int32(len(t.cands))
	t.cands = append(t.cands, Candidate{Items: item.Clone(items)})
	t.idx.insert(id, t.itemsOf)
	return id
}

// Len returns the number of candidates in the table.
func (t *Table) Len() int { return len(t.cands) }

// Get returns the candidate with dense id. The returned pointer stays valid
// only until the next Add.
func (t *Table) Get(id int32) *Candidate { return &t.cands[id] }

// Lookup probes the table for a canonical itemset, returning its id or -1.
// Every call counts as one probe. It performs no heap allocation.
func (t *Table) Lookup(items []item.Item) int32 {
	t.probes++
	return t.idx.findItems(items, t.itemsOf)
}

// LookupKey probes by pre-packed key, returning the id or -1. Counts as one
// probe.
func (t *Table) LookupKey(key string) int32 {
	t.probes++
	return t.idx.findKey(key, t.itemsOf)
}

// LookupPacked probes by a packed key held in a reusable byte buffer (see
// AppendKey), returning the id or -1. Counts as one probe and performs no
// heap allocation.
func (t *Table) LookupPacked(key []byte) int32 {
	t.probes++
	return t.idx.findPacked(key, t.itemsOf)
}

// Has reports whether the itemset is present without counting a probe; used
// by candidate generation, not by support counting.
func (t *Table) Has(items []item.Item) bool {
	return t.idx.findItems(items, t.itemsOf) >= 0
}

// Increment adds one to the support count of candidate id.
func (t *Table) Increment(id int32) { t.cands[id].Count++ }

// AddCount adds delta to the support count of candidate id.
func (t *Table) AddCount(id int32, delta int64) { t.cands[id].Count += delta }

// Probes returns the number of lookups performed so far.
func (t *Table) Probes() int64 { return t.probes }

// ResetProbes zeroes the probe counter.
func (t *Table) ResetProbes() { t.probes = 0 }

// AddProbes adds delta to the probe counter — how parallel scan workers fold
// their per-worker probe counts into the owning table after the merge
// barrier.
func (t *Table) AddProbes(delta int64) { t.probes += delta }

// Counts returns a snapshot of all support counters, indexed by candidate id.
func (t *Table) Counts() []int64 {
	out := make([]int64, len(t.cands))
	for i := range t.cands {
		out[i] = t.cands[i].Count
	}
	return out
}

// Candidates returns the canonical itemsets in the table ordered by id.
// The inner slices are shared; do not modify.
func (t *Table) Candidates() [][]item.Item {
	out := make([][]item.Item, len(t.cands))
	for i := range t.cands {
		out[i] = t.cands[i].Items
	}
	return out
}

// Large returns the itemsets whose count meets minCount, each paired with
// its count, ordered lexicographically.
func (t *Table) Large(minCount int64) []Counted {
	var out []Counted
	for i := range t.cands {
		if t.cands[i].Count >= minCount {
			out = append(out, Counted{Items: t.cands[i].Items, Count: t.cands[i].Count})
		}
	}
	SortCounted(out)
	return out
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("table{candidates:%d probes:%d}", len(t.cands), t.probes)
}

// Counted pairs an itemset with a support count; the unit the coordinator
// gathers and the miner reports.
type Counted struct {
	Items []item.Item
	Count int64
}

// SortCounted orders counted itemsets lexicographically by itemset.
func SortCounted(cs []Counted) {
	sort.Slice(cs, func(i, j int) bool { return item.Compare(cs[i].Items, cs[j].Items) < 0 })
}
