package itemset

import "pgarm/internal/item"

// GenFlat implements apriori-gen over the large (k-1)-itemsets prev: it joins
// the pairs of sets that share their first k-2 items and prunes every
// k-itemset with a (k-1)-subset not in prev, writing the survivors into one
// arena in lexicographic order. Prune membership is one Table lookup per
// (k-1)-subset, and the only allocations that grow with the candidates are
// the arena's doublings.
//
// prev is read in place; NewTable checks its contract.
func GenFlat(prev Sets) Sets {
	k1 := prev.K
	k := k1 + 1
	prune := NewTable(prev)
	scratch := make([]item.Item, 0, k)
	sub := make([]item.Item, 0, k1)
	var arena []item.Item
	for i, n := 0, prev.Len(); i < n; i++ {
		a := prev.At(i)
		for j := i + 1; j < n; j++ {
			b := prev.At(j)
			if !item.Equal(a[:k1-1], b[:k1-1]) {
				break // sorted order: no further joins for i
			}
			scratch = append(append(scratch[:0], a...), b[k1-1])
			ok := true
			for drop := 0; drop < k-2; drop++ {
				sub = sub[:0]
				for x := range scratch {
					if x != drop {
						sub = append(sub, scratch[x])
					}
				}
				if prune.Lookup(sub) < 0 {
					ok = false
					break
				}
			}
			if ok {
				arena = append(arena, scratch...)
			}
		}
	}
	return Sets{K: k, Items: arena}
}
