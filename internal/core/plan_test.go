package core

import (
	"fmt"
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

// TestComputeHierPlanParallelMatches asserts the sharded partition plan —
// root-vector hashes, owners, duplication flags and the duplicated layout —
// is identical to the workers=1 plan at every worker count, for every
// duplication granule.
func TestComputeHierPlanParallelMatches(t *testing.T) {
	m, cands := planFixture(t, 32<<10)
	for _, kind := range []dupKind{dupNone, dupTree, dupPath, dupFine} {
		want := computeHierPlan(m, 8, kind, 2, cands, 1, nil)
		for _, w := range []int{2, 4, 8} {
			got := computeHierPlan(m, 8, kind, 2, cands, w, nil)
			if !reflect.DeepEqual(got.vecHashes, want.vecHashes) {
				t.Fatalf("kind=%d workers=%d: vecHashes diverged", kind, w)
			}
			if !reflect.DeepEqual(got.owners, want.owners) {
				t.Fatalf("kind=%d workers=%d: owners diverged", kind, w)
			}
			if !reflect.DeepEqual(got.dup, want.dup) {
				t.Fatalf("kind=%d workers=%d: dup flags diverged (%d vs %d set)",
					kind, w, got.dup.count(), want.dup.count())
			}
			if !reflect.DeepEqual(got.dupSets, want.dupSets) {
				t.Fatalf("kind=%d workers=%d: dupSets diverged", kind, w)
			}
			// dupIndex is derived from dupSets; spot-check id agreement.
			for i, s := range got.dupSets {
				if id := got.dupIndex.Lookup(s); id != int32(i) {
					t.Fatalf("kind=%d workers=%d: dupIndex[%v] = %d, want %d", kind, w, s, id, i)
				}
			}
		}
	}
}

// TestComputeHierPlanUnlimitedBudget covers the degenerate everything-
// duplicated path across worker counts.
func TestComputeHierPlanUnlimitedBudget(t *testing.T) {
	m, cands := planFixture(t, 0)
	want := computeHierPlan(m, 4, dupFine, 2, cands, 1, nil)
	got := computeHierPlan(m, 4, dupFine, 2, cands, 4, nil)
	if !reflect.DeepEqual(got.dup, want.dup) || got.dup.count() != len(cands) {
		t.Fatalf("unlimited budget: %d duplicated, want all %d", got.dup.count(), len(cands))
	}
}

// BenchmarkPassPlan measures partition-plan construction — the H-HPGM pass
// boundary this change parallelizes and strips of per-candidate
// allocations. serial-reference reproduces the retired representation (one
// root-vector slice + one packed Key string per candidate, serial loop);
// the plain sweep is the new hashing/ownership plan (dupNone isolates the
// representation delta); the fgd sweep adds duplication selection and the
// duplicated index build on top.
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
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeHierPlan(m, 8, dupNone, 2, cands, w, nil)
			}
		})
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("fgd/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeHierPlan(m, 8, dupFine, 2, cands, w, nil)
			}
		})
	}
}
