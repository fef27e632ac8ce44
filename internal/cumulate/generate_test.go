package cumulate

import (
	"math/rand"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// randomLevel builds a plausible L_{k-1}: distinct sorted (k-1)-itemsets in
// lexicographic order, many sharing prefixes so the join has real work.
func randomLevel(rng *rand.Rand, numItems, n, k1 int) [][]item.Item {
	seen := make(map[string]bool, n)
	var sets [][]item.Item
	for len(sets) < n {
		s := make([]item.Item, 0, k1)
		for len(s) < k1 {
			s = item.Dedup(append(s, item.Item(rng.Intn(numItems))))
		}
		if key := itemset.Key(s); !seen[key] {
			seen[key] = true
			sets = append(sets, s)
		}
	}
	itemset.SortSets(sets)
	return sets
}

// TestPairsFilteredCompaction pins the k=2 memory-retention fix: every pair
// candidate must be a full (cap==2) slice of an exactly-sized backing, so
// rejected pairs pin nothing.
func TestPairsFilteredCompaction(t *testing.T) {
	tax := taxonomy.MustBalanced(120, 4, 3)
	prev := randomLevel(rand.New(rand.NewSource(23)), tax.NumItems(), 60, 1)
	cands := GenerateCandidates(tax, prev, 2)
	if len(cands) == 0 {
		t.Fatal("no pair candidates generated")
	}
	total := 0
	for i, c := range cands {
		if len(c) != 2 || cap(c) != 2 {
			t.Fatalf("candidate %d: len=%d cap=%d, want 2/2 (full slice of compact backing)", i, len(c), cap(c))
		}
		total++
	}
	// The filter must actually have rejected something for the compaction to
	// matter; a balanced taxonomy guarantees item/ancestor pairs exist when
	// interior items are present.
	n := len(prev)
	if total == n*(n-1)/2 {
		t.Log("warning: no pairs rejected this seed; compaction untested against rejections")
	}
}
