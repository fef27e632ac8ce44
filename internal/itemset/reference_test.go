package itemset

import (
	"sort"

	"pgarm/internal/item"
)

// This file keeps the slice-per-candidate generators the arena path
// replaced, as test references: Gen is the map-keyed apriori-gen GenFlat
// must match, Pairs the unfiltered C_2.

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
