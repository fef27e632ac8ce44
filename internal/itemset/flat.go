package itemset

import "pgarm/internal/item"

// GenFlat is Gen without the per-candidate allocations: the sorted L_{k-1}
// is joined and pruned into one flat arena (one backing array instead of one
// allocation per candidate), and prune membership is one Table lookup per
// (k-1)-subset instead of a map of packed Key strings. The output is Gen's,
// order included.
//
// Every miner hands over the L_{k-1} its barrier recorded, which is already
// in canonical order, so prev is only checked (one linear pass) and read in
// place; unsorted input is copied and sorted first.
func GenFlat(prev [][]item.Item) [][]item.Item {
	if len(prev) == 0 {
		return nil
	}
	k1 := len(prev[0])
	k := k1 + 1
	sets := prev
	if !setsSorted(sets) {
		sets = make([][]item.Item, len(prev))
		copy(sets, prev)
		SortSets(sets)
	}

	prune := BuildTable(sets)

	// Surviving candidates are appended to the arena and sliced out after
	// it stops growing, so the join performs O(1) allocations however many
	// candidates it emits.
	scratch := make([]item.Item, 0, k)
	sub := make([]item.Item, 0, k1)
	var arena []item.Item
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !item.Equal(sets[i][:k1-1], sets[j][:k1-1]) {
				break // sorted order: no further joins for i
			}
			scratch = append(scratch[:0], sets[i]...)
			scratch = append(scratch, sets[j][k1-1])
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
	nc := len(arena) / k
	if nc == 0 {
		return nil
	}
	out := make([][]item.Item, nc)
	for c := 0; c < nc; c++ {
		out[c] = arena[c*k : (c+1)*k : (c+1)*k]
	}
	return out
}

// setsSorted reports whether sets is in strictly ascending lexicographic
// order.
func setsSorted(sets [][]item.Item) bool {
	for i := 1; i < len(sets); i++ {
		if item.Compare(sets[i-1], sets[i]) >= 0 {
			return false
		}
	}
	return true
}
