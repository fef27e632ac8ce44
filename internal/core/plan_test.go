package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// planFixture builds an itemsetMiner with enough replicated state (taxonomy,
// pass-1 counts, large flags, config) to drive partition planning, plus a
// realistic C_2 produced by the actual generator.
func planFixture(t testing.TB, budget int64) (*itemsetMiner, [][]item.Item) {
	tax := taxonomy.MustBalanced(200, 5, 4)
	rng := rand.New(rand.NewSource(67))
	itemCounts := make([]int64, tax.NumItems())
	largeFlags := make([]bool, tax.NumItems())
	var prev [][]item.Item
	for i := range itemCounts {
		itemCounts[i] = int64(rng.Intn(5000))
		if itemCounts[i] >= 2000 {
			largeFlags[i] = true
			prev = append(prev, []item.Item{item.Item(i)})
		}
	}
	if len(prev) < 20 {
		t.Fatal("fixture produced too few large items")
	}
	m := &itemsetMiner{
		tax:        tax,
		cfg:        Config{MemoryBudget: budget},
		itemCounts: itemCounts,
		largeFlags: largeFlags,
	}
	cands := cumulate.GenerateCandidates(tax, prev, 2)
	if len(cands) == 0 {
		t.Fatal("fixture produced no candidates")
	}
	return m, cands
}

// TestComputeHierPlanUnlimitedBudget covers the degenerate everything-
// duplicated path: the plan carries no routing state (root-vector hashes,
// owners, duplication flags), and every candidate is listed in id order and
// indexed under its position in the duplicated list.
func TestComputeHierPlanUnlimitedBudget(t *testing.T) {
	m, cands := planFixture(t, 0)
	got := computeHierPlan(m, 4, dupFine, 2, cands)
	if got.vecHashes != nil || got.owners != nil || got.dup != nil {
		t.Fatal("unlimited budget: the plan carries root-vector hashes, owners or duplication flags")
	}
	if got.decision.Duplicated != len(cands) || got.fragments != 1 {
		t.Fatalf("unlimited budget: %d duplicated in %d fragments, want all %d in 1",
			got.decision.Duplicated, got.fragments, len(cands))
	}
	if !reflect.DeepEqual(got.dupSets, cands) {
		t.Fatal("unlimited budget: dupSets is not C_k in id order")
	}
	if got.dupIndex.Len() != len(cands) {
		t.Fatalf("dupIndex holds %d sets, want %d", got.dupIndex.Len(), len(cands))
	}
	var stamps itemset.Stamps
	for i, s := range got.dupSets { // a set contains itself and no other k-set
		counts := make([]int64, len(cands))
		if hits := got.dupIndex.CountContained(s, counts, &stamps); hits != 1 || counts[i] != 1 {
			t.Fatalf("dupIndex counts %v as %d hits, counts[%d] = %d; want 1 and 1", s, hits, i, counts[i])
		}
	}
}

// BenchmarkPassPlan measures partition-plan construction, the H-HPGM pass
// boundary stripped of per-candidate allocations. serial-reference
// reproduces the retired representation (one root-vector slice + one packed
// Key string per candidate); none is the hashing/ownership plan (dupNone
// isolates the representation delta); fgd adds duplication selection and
// the duplicated index build on top.
func BenchmarkPassPlan(b *testing.B) {
	m, cands := planFixture(b, 512<<10)
	b.Run("serial-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecKeys := make([]string, len(cands))
			owners := make([]int, len(cands))
			for j, c := range cands {
				vec := rootVector(m.tax, nil, c)
				vecKeys[j] = itemset.Key(vec)
				owners[j] = int(itemset.Hash(vec) % 8)
			}
			_, _ = vecKeys, owners
		}
	})
	for _, c := range []struct {
		name string
		kind dupKind
	}{{"none", dupNone}, {"fgd", dupFine}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeHierPlan(m, 8, c.kind, 2, cands)
			}
		})
	}
}
