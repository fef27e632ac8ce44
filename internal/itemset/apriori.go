package itemset

import (
	"sort"

	"pgarm/internal/item"
)

// SortSets orders a slice of canonical itemsets lexicographically — the
// precondition for the join step of Gen.
func SortSets(sets [][]item.Item) {
	sort.Slice(sets, func(i, j int) bool { return item.Compare(sets[i], sets[j]) < 0 })
}

// Gen implements apriori-gen: given the large (k-1)-itemsets, produce the
// candidate k-itemsets by joining L_{k-1} with itself (pairs sharing their
// first k-2 items) and pruning every k-itemset that has a (k-1)-subset not
// in L_{k-1}. prev need not be pre-sorted; all members must have equal
// length >= 1. The result is lexicographically sorted.
func Gen(prev [][]item.Item) [][]item.Item {
	if len(prev) == 0 {
		return nil
	}
	k1 := len(prev[0])
	sets := make([][]item.Item, len(prev))
	copy(sets, prev)
	SortSets(sets)

	inPrev := make(map[string]struct{}, len(sets))
	for _, s := range sets {
		inPrev[Key(s)] = struct{}{}
	}

	var out [][]item.Item
	scratch := make([]item.Item, k1)
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if !item.Equal(sets[i][:k1-1], sets[j][:k1-1]) {
				break // sorted order: no further joins for i
			}
			// Join: first k-2 items shared, last items ascending.
			cand := make([]item.Item, 0, k1+1)
			cand = append(cand, sets[i]...)
			cand = append(cand, sets[j][k1-1])
			if pruneOK(cand, inPrev, scratch) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// pruneOK checks that every (k-1)-subset of cand is in prev. Subsets formed
// by dropping the last two positions equal the join parents and are skipped.
func pruneOK(cand []item.Item, inPrev map[string]struct{}, scratch []item.Item) bool {
	k := len(cand)
	for drop := 0; drop < k-2; drop++ {
		scratch = scratch[:0]
		for i, x := range cand {
			if i != drop {
				scratch = append(scratch, x)
			}
		}
		if _, ok := inPrev[Key(scratch)]; !ok {
			return false
		}
	}
	return true
}

// Pairs generates all candidate 2-itemsets from the large items — the pass-2
// special case (C_2 = L_1 × L_1). Ancestor-containing pairs are filtered by
// the caller, which has the taxonomy. large must be canonical; the result is
// lexicographically sorted.
func Pairs(large []item.Item) [][]item.Item {
	n := len(large)
	if n < 2 {
		return nil
	}
	total := n * (n - 1) / 2
	// One flat backing array instead of one allocation per pair: C_2 holds
	// millions of candidates at small minimum support.
	backing := make([]item.Item, 0, 2*total)
	out := make([][]item.Item, 0, total)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			backing = append(backing, large[i], large[j])
			out = append(out, backing[len(backing)-2:])
		}
	}
	return out
}

// ForEachSubset enumerates every k-subset of the canonical itemset txn in
// lexicographic order, invoking fn with a scratch slice that is reused
// between calls — fn must not retain it. Enumeration stops early if fn
// returns false.
func ForEachSubset(txn []item.Item, k int, fn func(subset []item.Item) bool) {
	ForEachSubsetScratch(txn, k, nil, fn)
}

// ForEachSubsetScratch is ForEachSubset with a caller-provided scratch
// buffer (cap >= k avoids the internal allocation). HPGM's sender calls this
// once per transaction with a per-worker buffer — it must ship every
// k-subset to its owner — so subset enumeration performs no heap allocation:
// the combination is advanced iteratively rather than by a recursive closure.
func ForEachSubsetScratch(txn []item.Item, k int, scratch []item.Item, fn func(subset []item.Item) bool) {
	n := len(txn)
	if k <= 0 || k > n {
		return
	}
	if cap(scratch) < k {
		scratch = make([]item.Item, k)
	}
	scratch = scratch[:k]

	// idx[d] is the txn position chosen for depth d; stack-backed for every
	// realistic subset size.
	var idxBuf [48]int
	idx := idxBuf[:]
	if k > len(idxBuf) {
		idx = make([]int, k)
	}
	for d := 0; d < k; d++ {
		idx[d] = d
		scratch[d] = txn[d]
	}
	for {
		if !fn(scratch) {
			return
		}
		// Advance to the next combination: bump the rightmost position that
		// still has headroom, then reset everything after it.
		d := k - 1
		for d >= 0 && idx[d] == n-k+d {
			d--
		}
		if d < 0 {
			return
		}
		idx[d]++
		scratch[d] = txn[idx[d]]
		for j := d + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
			scratch[j] = txn[idx[j]]
		}
	}
}
