package cumulate

import (
	"math/rand"
	"slices"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// randomL1 draws n distinct items of the taxonomy as an L_1 in item order.
func randomL1(rng *rand.Rand, tax *taxonomy.Taxonomy, n int) []itemset.Counted {
	perm := rng.Perm(tax.NumItems())[:n]
	slices.Sort(perm)
	l1 := make([]itemset.Counted, n)
	for i, x := range perm {
		l1[i] = itemset.Counted{Items: []item.Item{item.Item(x)}, Count: 1}
	}
	return l1
}

// TestPairsFilteredCompaction pins the k=2 memory-retention fix: C_2's arena
// is sized to the surviving pairs exactly, so rejected pairs pin nothing.
func TestPairsFilteredCompaction(t *testing.T) {
	tax := taxonomy.MustBalanced(120, 4, 3)
	l1 := randomL1(rand.New(rand.NewSource(23)), tax, 60)
	cands := GenerateCandidates(tax, l1, 2)
	if cands.Len() == 0 {
		t.Fatal("no pair candidates generated")
	}
	if cands.K != 2 || len(cands.Items) != 2*cands.Len() || cap(cands.Items) != len(cands.Items) {
		t.Fatalf("K=%d, %d items of capacity %d for %d pairs: want an exactly sized arena",
			cands.K, len(cands.Items), cap(cands.Items), cands.Len())
	}
	// The filter must actually have rejected something for the compaction to
	// matter; a balanced taxonomy guarantees item/ancestor pairs exist when
	// interior items are present.
	n := len(l1)
	if cands.Len() == n*(n-1)/2 {
		t.Log("warning: no pairs rejected this seed; compaction untested against rejections")
	}
}
