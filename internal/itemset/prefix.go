package itemset

import (
	"sort"

	"pgarm/internal/item"
)

// prefixLayout is the counting side of an Index: the indexed k-itemsets as a
// trie over their lexicographic order, flattened into per-level arrays. Level
// l lists the distinct (l+1)-item prefixes in sorted order; items[l][j] is
// prefix j's last item and, below the leaf level, its children are the
// level-l+1 nodes [start[l][j], start[l][j+1]). Level 0 is reached through
// the dense directory dir (first item -> level-0 node, -1 when no set starts
// with it). Leaves are the sets themselves in sorted order, so when the
// input was strictly ascending — every candidate list the generators emit —
// a leaf's position is its dense id and ids stays nil; otherwise ids maps
// leaf position to id.
type prefixLayout struct {
	k       int       // common set length; 0 for an empty index, -1 for mixed lengths
	maxItem item.Item // largest item in any set
	dir     []int32
	items   [][]item.Item
	start   [][]int32
	ids     []int32
}

// build lays out sets. Duplicate itemsets collapse into one leaf carrying the
// lowest id, matching the hash side's first-occurrence rule.
func (p *prefixLayout) build(sets [][]item.Item) {
	if len(sets) == 0 {
		return
	}
	k := len(sets[0])
	ascending := true
	for i, s := range sets {
		if len(s) != k {
			p.k = -1
			return
		}
		if i > 0 && item.Compare(sets[i-1], s) >= 0 {
			ascending = false
		}
		if k > 0 && s[k-1] > p.maxItem {
			p.maxItem = s[k-1]
		}
	}
	p.k = k
	if k == 0 {
		return
	}
	var order []int32 // sorted position -> id; nil = identity
	if !ascending {
		order = make([]int32, len(sets))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			if c := item.Compare(sets[order[a]], sets[order[b]]); c != 0 {
				return c < 0
			}
			return order[a] < order[b]
		})
	}
	at := func(pos int) []item.Item {
		if order != nil {
			return sets[order[pos]]
		}
		return sets[pos]
	}
	// fresh returns the first level at which the set at pos opens a new node
	// (k for a duplicate of its predecessor).
	fresh := func(pos int) int {
		if pos == 0 {
			return 0
		}
		prev, cur := at(pos-1), at(pos)
		l := 0
		for l < k && prev[l] == cur[l] {
			l++
		}
		return l
	}

	// Pass 1 sizes every level exactly; pass 2 fills.
	nodes := make([]int, k)
	for pos := range sets {
		for l := fresh(pos); l < k; l++ {
			nodes[l]++
		}
	}
	p.items = make([][]item.Item, k)
	p.start = make([][]int32, k-1)
	for l := 0; l < k; l++ {
		p.items[l] = make([]item.Item, 0, nodes[l])
		if l < k-1 {
			p.start[l] = make([]int32, 0, nodes[l]+1)
		}
	}
	if order != nil {
		p.ids = make([]int32, 0, nodes[k-1])
	}
	p.dir = make([]int32, int(at(len(sets) - 1)[0])+1)
	for i := range p.dir {
		p.dir[i] = -1
	}
	for pos := range sets {
		s := at(pos)
		l := fresh(pos)
		if l == k {
			continue
		}
		if l == 0 {
			p.dir[s[0]] = int32(len(p.items[0]))
		}
		for ; l < k; l++ {
			if l < k-1 {
				p.start[l] = append(p.start[l], int32(len(p.items[l+1])))
			}
			p.items[l] = append(p.items[l], s[l])
		}
		if order != nil {
			p.ids = append(p.ids, order[pos])
		}
	}
	for l := 0; l < k-1; l++ {
		p.start[l] = append(p.start[l], int32(len(p.items[l+1])))
	}
}

// Stamps is one worker's scratch for Index.CountContained: for each item of
// the transaction being counted, its position. Entries are stamped relative
// to a base that advances past every transaction, so nothing is cleared
// between transactions. A dense C_2 uses ranks instead, the transaction's
// items mapped to pair-table ranks. The zero value is ready to use; it grows
// once to the largest item id (or transaction) seen and then never
// allocates.
type Stamps struct {
	at    []uint32 // at[x] - base - 1 = position of x when at[x] > base
	next  uint32   // base of the next transaction: past every stamp so far
	ranks []int32  // the transaction's pair-table ranks, dense C_2 only
}

// stamp records txn's item positions and returns the base they are relative
// to. maxItem is the largest item the caller will look up.
func (s *Stamps) stamp(txn []item.Item, maxItem item.Item) uint32 {
	if last := txn[len(txn)-1]; last > maxItem {
		maxItem = last
	}
	if int(maxItem) >= len(s.at) {
		grown := make([]uint32, int(maxItem)+1)
		copy(grown, s.at)
		s.at = grown
	}
	base := s.next
	if base > 1<<31 {
		for i := range s.at {
			s.at[i] = 0
		}
		base = 0
	}
	s.next = base + uint32(len(txn))
	for i, x := range txn {
		s.at[x] = base + uint32(i) + 1
	}
	return base
}

// Choose returns C(n, k), the number of k-subsets of an n-item transaction:
// the probes the paper's count-support step offers the candidate table for
// that transaction. Zero when k is outside [0, n].
func Choose(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := int64(1)
	for i := 1; i <= k; i++ {
		c = c * int64(n-k+i) / int64(i)
	}
	return c
}

// countWalk is the per-call state of CountContained, kept in one struct so
// the recursive descent passes a single pointer.
type countWalk struct {
	p      *prefixLayout
	txn    []item.Item
	at     []uint32
	base   uint32
	counts []int64
	found  int64
}

// CountContained adds one to counts[id] for every indexed itemset contained
// in txn, and returns how many it found. txn must be canonical, and counts
// needs an entry per indexed id (Len). It is the count-support kernel:
// instead of materializing all C(len(txn), k) subsets and probing each, it
// descends the prefix layout only along prefixes that exist, so subsets no
// candidate starts with are never formed. At every node the children and
// the remaining transaction items are intersected from the smaller side: few
// children are tested against st's position stamps, few remaining items are
// binary-searched among the children.
//
// A dense C_2 skips the descent: the transaction's items become pair-table
// ranks and every pair of them is read from the table.
//
// The index is only read, so any number of goroutines may count over it
// concurrently, each with its own counts and Stamps. It allocates nothing
// once st has grown. All indexed sets must have one length.
func (ix *Index) CountContained(txn []item.Item, counts []int64, st *Stamps) int64 {
	if ix.pairs.pair != nil {
		var found int64
		st.ranks, found = ix.pairs.count(txn, counts, st.ranks)
		return found
	}
	p := &ix.pre
	k := p.k
	if k < 0 {
		panic("itemset: CountContained over itemsets of mixed length")
	}
	if k == 0 || len(txn) < k {
		return 0
	}
	w := countWalk{p: p, txn: txn, counts: counts}
	w.base = st.stamp(txn, p.maxItem)
	w.at = st.at
	for i, last := 0, len(txn)-k; i <= last; i++ {
		x := txn[i]
		if int(x) >= len(p.dir) {
			break
		}
		j := p.dir[x]
		if j < 0 {
			continue
		}
		if k == 1 {
			w.bump(j)
		} else {
			w.descend(1, p.start[0][j], p.start[0][j+1], i+1)
		}
	}
	return w.found
}

// bump counts the leaf at sorted position j.
func (w *countWalk) bump(j int32) {
	id := j
	if w.p.ids != nil {
		id = w.p.ids[j]
	}
	w.counts[id]++
	w.found++
}

// descend matches the level-l nodes [a, b) — the children of a prefix whose
// last item sits at txn[from-1] — against the transaction items that can
// still be extended to a full k-set, txn[from:limit].
func (w *countWalk) descend(l int, a, b int32, from int) {
	p := w.p
	limit := len(w.txn) - (p.k - 1 - l)
	items := p.items[l]
	leaf := l == p.k-1
	if int(b-a) <= childSideFactor*(limit-from) {
		// Children side: every child item exceeds the parent's, so one that
		// is in the transaction at all sits at a position >= from.
		top := w.txn[limit-1]
		for j := a; j < b; j++ {
			c := items[j]
			if c > top {
				break
			}
			s := w.at[c]
			if s <= w.base {
				continue
			}
			if leaf {
				w.bump(j)
			} else {
				w.descend(l+1, p.start[l][j], p.start[l][j+1], int(s-w.base))
			}
		}
		return
	}
	// Transaction side: both lists ascend, so each search resumes where the
	// previous one ended.
	for pos := from; pos < limit && a < b; pos++ {
		x := w.txn[pos]
		u, v := a, b
		for u < v {
			mid := int32(uint32(u+v) >> 1)
			if items[mid] < x {
				u = mid + 1
			} else {
				v = mid
			}
		}
		a = u
		if a == b || items[a] != x {
			continue
		}
		if leaf {
			w.bump(a)
		} else {
			w.descend(l+1, p.start[l][a], p.start[l][a+1], pos+1)
		}
		a++
	}
}

// childSideFactor is how many times more children than remaining
// transaction items a node may have before the binary search from the
// transaction side (log2(children) steps per item) beats one stamp test per
// child.
const childSideFactor = 8
