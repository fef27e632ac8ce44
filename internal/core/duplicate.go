package core

import (
	"sort"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// dupKind selects the duplication granule of §3.4.
type dupKind int

const (
	dupNone dupKind = iota // plain H-HPGM: no duplication
	dupTree                // H-HPGM-TGD: whole trees (root k-itemsets)
	dupPath                // H-HPGM-PGD: frequent leaf itemsets + ancestors
	dupFine                // H-HPGM-FGD: frequent any-level itemsets + ancestors
	dupAll                 // NPGM: every candidate, fragmented past the budget
)

// CandBytes estimates the per-candidate memory footprint the paper's M
// models: k 4-byte items plus table entry overhead (hash bucket, count,
// header). The absolute constant only shifts where fragmentation and
// duplication kick in; the experiments sweep MemoryBudget relative to it.
func CandBytes(k int) int64 { return 48 + 4*int64(k) }

// fragmentCount returns how many memory-sized fragments an all-replicated
// pass must split |C_k| candidates into.
func fragmentCount(numCands, k int, budget int64) int {
	if budget <= 0 {
		return 1
	}
	perNode := max(budget/CandBytes(k), 1)
	return max(int((int64(numCands)+perNode-1)/perNode), 1)
}

// selectDuplicates picks the candidates to copy onto every node, flagged by
// index into cands. The decision is a pure function of globally replicated
// state (L1 counts, candidates, owners), so every node computes the same
// set without communication — the paper's step 1 of Figures 7/9/11. Only a
// budgeted plan asks: with no budget a duplicating variant takes every
// candidate (computeHierPlan).
func selectDuplicates(m *itemsetMiner, nNodes int, kind dupKind, k int, cands [][]item.Item, vecHashes []uint64, owners []int) bitset {
	dup := newBitset(len(cands))
	if len(cands) == 0 || kind == dupNone {
		return dup
	}
	// Free space: per-node budget minus the largest partitioned share
	// ("count the number of candidates allocated for each node").
	capLeft := len(cands)
	{
		ownedPerNode := make([]int, nNodes)
		for _, o := range owners {
			ownedPerNode[o]++
		}
		maxOwned := 0
		for _, c := range ownedPerNode {
			if c > maxOwned {
				maxOwned = c
			}
		}
		slots := int(m.cfg.MemoryBudget / CandBytes(k))
		capLeft = slots - maxOwned
		if capLeft <= 0 {
			return dup
		}
	}

	switch kind {
	case dupTree:
		selectTreeGrain(m, cands, vecHashes, capLeft, dup)
	case dupPath:
		selectItemGrain(m, cands, capLeft, dup, lowestLargePred(m))
	case dupFine:
		selectItemGrain(m, cands, capLeft, dup, func(item.Item) bool { return true })
	}
	return dup
}

// lowestLargePred builds PGD's item-eligibility predicate: large items none
// of whose descendants are large.
func lowestLargePred(m *itemsetMiner) func(item.Item) bool {
	lowest := make([]bool, m.tax.NumItems())
	for _, x := range lowestLargeItems(m.tax, m.largeFlags) {
		lowest[x] = true
	}
	return func(x item.Item) bool { return lowest[x] }
}

// selectTreeGrain duplicates whole root k-itemset groups ("trees") in
// decreasing order of root frequency until the next group no longer fits —
// the coarse grain that wastes free space at small minimum support
// (Figure 14's TGD-equals-H-HPGM regime).
func selectTreeGrain(m *itemsetMiner, cands [][]item.Item, vecHashes []uint64, capLeft int, dup bitset) {
	groups := make(map[uint64][]int32)
	for i := range cands {
		groups[vecHashes[i]] = append(groups[vecHashes[i]], int32(i))
	}
	type scored struct {
		hash  uint64
		vec   []item.Item
		score int64
	}
	order := make([]scored, 0, len(groups))
	for h, members := range groups {
		// One vector materialization per group (recomputed from any member)
		// instead of one packed string per candidate. A hash collision merges
		// two trees into one take-both group; the choice stays deterministic
		// on every node, which is all correctness needs.
		vec := rootVector(m.tax, nil, cands[members[0]])
		var s int64
		for _, r := range vec {
			s += m.itemCounts[r]
		}
		order = append(order, scored{hash: h, vec: vec, score: s})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return item.Compare(order[i].vec, order[j].vec) < 0
	})
	for _, g := range order {
		members := groups[g.hash]
		if len(members) > capLeft {
			break // tree grain: the whole hierarchy group or nothing
		}
		for _, idx := range members {
			dup.set(idx)
		}
		capLeft -= len(members)
	}
}

// selectItemGrain implements the shared shape of PGD and FGD: consider the
// candidates whose members all satisfy the eligibility predicate (lowest
// large items for PGD, any large item for FGD) in decreasing order of their
// items' summed frequency — the order the paper obtains by generating
// k-itemsets from the frequency-sorted item list — and duplicate each one
// together with all its ancestor candidates, while the free space lasts.
func selectItemGrain(m *itemsetMiner, cands [][]item.Item, capLeft int, dup bitset, eligible func(item.Item) bool) {
	type scored struct {
		idx   int32
		score int64
	}
	// Ancestor-candidate lookups go through a Table instead of a map of one
	// packed string per candidate.
	candIdx := itemset.BuildTable(cands)
	order := make([]scored, 0, len(cands))
	for i, c := range cands {
		ok := true
		var s int64
		for _, x := range c {
			if !eligible(x) {
				ok = false
				break
			}
			s += m.itemCounts[x]
		}
		if ok {
			order = append(order, scored{idx: int32(i), score: s})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].idx < order[j].idx
	})

	group := make([]int32, 0, 16)
	for _, sc := range order {
		if dup.get(sc.idx) {
			continue
		}
		// The chosen itemset plus all its ancestor candidates form one
		// duplication group.
		group = group[:0]
		group = append(group, sc.idx)
		forEachAncestorCombo(m.tax, cands[sc.idx], func(anc []item.Item) {
			if aidx := candIdx.Lookup(anc); aidx >= 0 && !dup.get(aidx) {
				group = append(group, aidx)
			}
		})
		if len(group) > capLeft {
			break // ordered by frequency: later groups are colder
		}
		for _, g := range group {
			dup.set(g)
		}
		capLeft -= len(group)
		if capLeft <= 0 {
			break
		}
	}
}

// lowestLargeItems returns the large items closest to the bottom of the
// hierarchy: large items none of whose descendants are large (the item pool
// PGD sorts). Large leaves qualify trivially.
func lowestLargeItems(tax *taxonomy.Taxonomy, large []bool) []item.Item {
	var out []item.Item
	var hasLarge func(x item.Item) bool // does x's strict subtree contain a large item?
	memo := make(map[item.Item]bool)
	hasLarge = func(x item.Item) bool {
		if v, ok := memo[x]; ok {
			return v
		}
		v := false
		for _, c := range tax.Children(x) {
			if large[c] || hasLarge(c) {
				v = true
				// No break: memoize the whole subtree anyway via recursion
				// triggered below when needed; cheap to stop here instead.
				break
			}
		}
		memo[x] = v
		return v
	}
	for i := 0; i < tax.NumItems(); i++ {
		x := item.Item(i)
		if large[x] && !hasLarge(x) {
			out = append(out, x)
		}
	}
	return out
}

// forEachAncestorCombo enumerates every k-itemset obtainable by replacing
// members of set with one of their strict-or-self ancestors, excluding set
// itself and any combination that collapses below k distinct items. Each
// result is canonical; the slice is only valid during the call.
func forEachAncestorCombo(tax *taxonomy.Taxonomy, set []item.Item, fn func(combo []item.Item)) {
	k := len(set)
	chains := make([][]item.Item, k)
	for i, x := range set {
		chains[i] = tax.SelfAndAncestors(nil, x)
	}
	combo := make([]item.Item, k)
	out := make([]item.Item, k)
	var rec func(pos int, allSelf bool)
	rec = func(pos int, allSelf bool) {
		if pos == k {
			if allSelf {
				return // the original itemset
			}
			copy(out, combo)
			out = item.Dedup(out)
			if len(out) == k {
				fn(out)
			}
			out = out[:k]
			return
		}
		for ci, a := range chains[pos] {
			combo[pos] = a
			rec(pos+1, allSelf && ci == 0)
		}
	}
	rec(0, true)
}
