package itemset

import (
	"math/bits"
	"sort"

	"pgarm/internal/item"
)

// prefixLayout is the counting side of an Index: the indexed k-itemsets as a
// trie over their lexicographic order, flattened into per-level arrays. Level
// l lists the distinct (l+1)-item prefixes in sorted order; below the leaf
// level, node j's children are the level-l+1 nodes [start[l][j],
// start[l][j+1]). Level 0 is reached through the dense directory dir (first
// item -> level-0 node, -1 when no set starts with it). Leaves are the sets
// themselves in sorted order, so when the input was strictly ascending —
// every candidate list the generators emit — a leaf's position is its dense
// id and ids stays nil; otherwise ids maps leaf position to id.
//
// A child's item is held in one of two forms, picked once per layout by
// size (build). The list form keeps items[l][j], the last item of level-l
// node j, for l ≥ 1. The bitset form ranks the distinct child items (items
// at levels ≥ 1, in item order) and keeps each interior node's children as
// a w-word bitset over those ranks, bits[l][j*w:(j+1)*w], with w = ⌈R/64⌉
// for R ranks: a node's children ascend by item and so by rank, and the
// child with rank r is the node start[l][j] plus the number of bits the node
// sets below r.
type prefixLayout struct {
	k       int       // common set length; 0 for an empty index, -1 for mixed lengths
	maxItem item.Item // largest item in any set
	dir     []int32
	start   [][]int32
	ids     []int32
	items   [][]item.Item // list form; items[0] stays nil, dir stands for it
	rank    rankTable     // bitset form
	bits    [][]uint64    // bitset form, levels 0..k-2
	w       int           // bitset form: words per node
	size    int64         // bytes held, counted as the form rule counts them
}

// rankTable maps a child item to its rank: has marks the ranked items, and
// below[i] counts the ranked items under word i.
type rankTable struct {
	has   []uint64
	below []int32
}

// of returns x's rank, or -1 when x is not ranked.
func (t *rankTable) of(x item.Item) int32 {
	i := int(x >> 6)
	if i >= len(t.has) {
		return -1
	}
	bit := uint64(1) << (x & 63)
	if t.has[i]&bit == 0 {
		return -1
	}
	return t.below[i] + int32(bits.OnesCount64(t.has[i]&(bit-1)))
}

// layoutForm names a child form; formAuto lets build pick by size, the
// others force a form for tests.
type layoutForm int

const (
	formAuto layoutForm = iota
	formList
	formBits
)

// listBytes and bitsBytes are the bytes the two child forms hold: a 4-byte
// item per child node, or 8 bytes per word of every interior node plus the
// rank table's 12 bytes per word of item space. The form rule and the
// layout's size (Index.Bytes) both count with them.
func listBytes(children int) int64 { return 4 * int64(children) }

func bitsBytes(interior, w, rankWords int) int64 {
	return 8*int64(interior)*int64(w) + 12*int64(rankWords)
}

// build lays out sets. Duplicate itemsets collapse into one leaf carrying the
// lowest id, matching the first-occurrence rule of Table. Under formAuto
// the bitset form is built iff it holds no more bytes than the child item
// arrays it replaces.
func (p *prefixLayout) build(sets [][]item.Item, form layoutForm) {
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

	// Pass 1 sizes every level exactly and marks the child items; pass 2
	// fills.
	nodes := make([]int, k)
	var has []uint64
	if k > 1 {
		has = make([]uint64, int(p.maxItem)>>6+1)
	}
	for pos := range sets {
		s := at(pos)
		for l := fresh(pos); l < k; l++ {
			nodes[l]++
			if l > 0 {
				has[s[l]>>6] |= 1 << (s[l] & 63)
			}
		}
	}
	interior, children, r := 0, 0, 0
	for l, n := range nodes {
		if l < k-1 {
			interior += n
		}
		if l > 0 {
			children += n
		}
	}
	for _, x := range has {
		r += bits.OnesCount64(x)
	}
	w := (r + 63) / 64
	if form == formAuto && k > 1 && bitsBytes(interior, w, len(has)) <= listBytes(children) {
		form = formBits
	}
	if k > 1 && form == formBits {
		p.rank = rankTable{has: has, below: make([]int32, len(has))}
		for i := 1; i < len(has); i++ {
			p.rank.below[i] = p.rank.below[i-1] + int32(bits.OnesCount64(has[i-1]))
		}
		p.w = w
		p.bits = make([][]uint64, k-1)
		for l := range p.bits {
			p.bits[l] = make([]uint64, nodes[l]*w)
		}
		p.size = bitsBytes(interior, w, len(has))
	} else {
		p.items = make([][]item.Item, k)
		for l := 1; l < k; l++ {
			p.items[l] = make([]item.Item, 0, nodes[l])
		}
		p.size = listBytes(children)
	}
	p.start = make([][]int32, k-1)
	for l := range p.start {
		p.start[l] = make([]int32, 0, nodes[l]+1)
	}
	if order != nil {
		p.ids = make([]int32, 0, nodes[k-1])
	}
	p.dir = make([]int32, int(at(len(sets) - 1)[0])+1)
	for i := range p.dir {
		p.dir[i] = -1
	}
	p.size += 4 * int64(len(p.dir)+interior+k-1+cap(p.ids)) // dir, start, ids

	filled := make([]int32, k) // nodes laid out so far, per level
	for pos := range sets {
		s := at(pos)
		l := fresh(pos)
		if l == k {
			continue
		}
		if l == 0 {
			p.dir[s[0]] = filled[0]
		}
		for ; l < k; l++ {
			if l < k-1 {
				p.start[l] = append(p.start[l], filled[l+1])
			}
			if l > 0 {
				if p.bits != nil {
					r := p.rank.of(s[l])
					p.bits[l-1][int(filled[l-1]-1)*p.w+int(r>>6)] |= 1 << (r & 63)
				} else {
					p.items[l] = append(p.items[l], s[l])
				}
			}
			filled[l]++
		}
		if order != nil {
			p.ids = append(p.ids, order[pos])
		}
	}
	for l := range p.start {
		p.start[l] = append(p.start[l], filled[l+1])
	}
}

// Stamps is one counter's scratch for Index.CountContained: for each item of
// the transaction being counted, its position. Entries are stamped relative
// to a base that advances past every transaction, so nothing is cleared
// between transactions. A bitset-form
// layout sets the transaction's child-item ranks in words instead, cleared
// per transaction, and a dense C_2 maps the items to pair-table ranks. The
// zero value is ready to use; it grows once to the largest item id (or
// transaction or rank space) seen and then never allocates.
type Stamps struct {
	at    []uint32 // at[x] - base - 1 = position of x when at[x] > base
	next  uint32   // base of the next transaction: past every stamp so far
	words []uint64 // the transaction's child-item ranks, bitset form only
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
	at     []uint32 // list form
	base   uint32   // list form
	words  []uint64 // bitset form
	counts []int64
	found  int64
}

// CountContained adds one to counts[id] for every indexed itemset contained
// in txn, and returns how many it found. txn must be canonical, and counts
// needs an entry per indexed id (Len). It is the count-support kernel:
// instead of materializing all C(len(txn), k) subsets and probing each, it
// descends the prefix layout only along prefixes that exist, so subsets no
// candidate starts with are never formed. In the bitset form every visited
// node's words are ANDed with the transaction's rank words, and each
// surviving bit is a child to descend to. In the list form the children and
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
	if p.bits != nil {
		w.words = st.rankWords(txn, p)
	} else {
		w.base = st.stamp(txn, p.maxItem)
		w.at = st.at
	}
	for i, last := 0, len(txn)-k; i <= last; i++ {
		x := txn[i]
		if int(x) >= len(p.dir) {
			break
		}
		j := p.dir[x]
		switch {
		case j < 0:
		case k == 1:
			w.bump(j)
		case p.bits != nil:
			w.visit(0, j)
		default:
			w.descend(1, p.start[0][j], p.start[0][j+1], i+1)
		}
	}
	return w.found
}

// rankWords returns the transaction's child-item ranks as p.w words.
func (s *Stamps) rankWords(txn []item.Item, p *prefixLayout) []uint64 {
	if len(s.words) < p.w {
		s.words = make([]uint64, p.w)
	}
	words := s.words[:p.w]
	clear(words)
	for _, x := range txn {
		if int(x>>6) >= len(p.rank.has) {
			break
		}
		if r := p.rank.of(x); r >= 0 {
			words[r>>6] |= 1 << (r & 63)
		}
	}
	return words
}

// visit counts below the bitset-form node j of level l: every child whose
// rank bit the transaction also sets is a leaf to bump or a node to visit.
func (w *countWalk) visit(l int, j int32) {
	p := w.p
	node := p.bits[l][int(j)*p.w : int(j+1)*p.w]
	words := w.words[:len(node)]
	child := p.start[l][j] // the first child of the word at hand
	leaf := l == p.k-2
	for i, nw := range node {
		for m := nw & words[i]; m != 0; m &= m - 1 {
			c := child + int32(bits.OnesCount64(nw&(m&-m-1)))
			if leaf {
				w.bump(c)
			} else {
				w.visit(l+1, c)
			}
		}
		child += int32(bits.OnesCount64(nw))
	}
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
