package itemset

import "pgarm/internal/item"

// pairTable is the whole of a dense C_2 index: a rank for every indexed item
// and a triangular id table over every pair of ranks. BuildIndex keeps one in
// place of the prefix layout when the 2-itemsets fill at least half of the
// n(n-1)/2 pairs their n distinct items can form, which holds the table to 8
// bytes per indexed set. Counting a transaction then
// costs one table read per pair of its indexed items, with no descent and
// no per-child stamp test.
type pairTable struct {
	slot []int32 // item -> rank among the indexed items; -1 for items in no set
	n    int32   // number of ranked items
	pair []int32 // ranks a < b at row(a)+b-a-1 -> id of that set; -1 if not indexed
}

// row returns where row a starts in pair: the rows of the upper triangle lie
// end to end, row a holding the n-a-1 entries for ranks b > a, so the entry
// for a < b is pair[row(a)+b-a-1].
func (p *pairTable) row(a int32) int {
	return int(a) * int(2*p.n-a-1) / 2
}

// build fills the table for s, whose largest item is maxItem, when it is a
// dense C_2 — 2-itemsets with 2·Len() ≥ n(n-1)/2 — and reports whether it
// did. Ids are positions in s.
func (p *pairTable) build(s Sets, maxItem item.Item) bool {
	if s.K != 2 || s.Len() == 0 {
		return false
	}
	slot := make([]int32, int(maxItem)+1)
	for _, x := range s.Items {
		slot[x] = 1
	}
	var n int32
	for x, used := range slot {
		if used != 0 {
			slot[x] = n
			n++
		} else {
			slot[x] = -1
		}
	}
	if 2*int64(s.Len()) < int64(n)*int64(n-1)/2 {
		return false
	}
	p.slot, p.n = slot, n
	p.pair = make([]int32, int(n)*int(n-1)/2)
	p.pair[0] = -1 // and every entry after it, by doubling copies
	for i := 1; i < len(p.pair); i *= 2 {
		copy(p.pair[i:], p.pair[:i])
	}
	for id := range s.Len() {
		a, b := slot[s.Items[2*id]], slot[s.Items[2*id+1]]
		p.pair[p.row(a)+int(b-a-1)] = int32(id)
	}
	return true
}

// count adds one to counts[id] for every indexed pair in the canonical txn
// and returns how many it found. ranks is the caller's scratch, returned
// grown so the next call reuses it.
func (p *pairTable) count(txn []item.Item, counts []int64, ranks []int32) ([]int32, int64) {
	ranks = ranks[:0]
	for _, x := range txn {
		if int(x) >= len(p.slot) {
			break
		}
		if r := p.slot[x]; r >= 0 {
			ranks = append(ranks, r)
		}
	}
	var found int64
	for i, a := range ranks {
		row := p.pair[p.row(a):]
		for _, b := range ranks[i+1:] {
			if id := row[b-a-1]; id >= 0 {
				counts[id]++
				found++
			}
		}
	}
	return ranks, found
}
