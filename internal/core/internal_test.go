package core

import (
	"fmt"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// hierarchy: 0 -> 2,3 ; 1 -> 4 ; 2 -> 5,6 ; 3 -> 7 ; 4 -> 8,9
func helperTaxonomy() *taxonomy.Taxonomy {
	return taxonomy.MustNew([]item.Item{
		item.None, item.None, 0, 0, 1, 2, 2, 3, 4, 4,
	})
}

func TestRootVector(t *testing.T) {
	tax := helperTaxonomy()
	got := rootVector(tax, nil, []item.Item{8, 5})
	if !item.Equal(got, []item.Item{0, 1}) {
		t.Errorf("rootVector({8,5}) = %v, want {0,1}", got)
	}
	got = rootVector(tax, nil, []item.Item{5, 6})
	if !item.Equal(got, []item.Item{0, 0}) {
		t.Errorf("rootVector({5,6}) = %v, want {0,0}", got)
	}
}

func TestRootRunsOf(t *testing.T) {
	tax := helperTaxonomy()
	runs := rootRunsOf(tax, nil, []item.Item{5, 6, 8, 9, 7})
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[0].root != 0 || runs[0].count != 3 {
		t.Errorf("run 0 = %+v, want root 0 count 3", runs[0])
	}
	if runs[1].root != 1 || runs[1].count != 2 {
		t.Errorf("run 1 = %+v, want root 1 count 2", runs[1])
	}
}

func TestEnumerateMultisets(t *testing.T) {
	runs := []rootRun{{root: 0, count: 2}, {root: 1, count: 1}}
	var got []string
	enumerateMultisets(runs, 2, nil, func(m []item.Item) {
		got = append(got, item.Format(m))
	})
	// Realizable 2-multisets: {0,0} (two items under 0), {0,1}; {1,1}
	// impossible (only one item under root 1).
	want := map[string]bool{"{0,0}": true, "{0,1}": true}
	if len(got) != len(want) {
		t.Fatalf("multisets = %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected multiset %s", g)
		}
	}
	// k larger than total multiplicity yields nothing.
	enumerateMultisets(runs, 4, nil, func(m []item.Item) {
		t.Errorf("impossible multiset %v", m)
	})
}

func TestForEachAncestorCombo(t *testing.T) {
	tax := helperTaxonomy()
	var got []string
	forEachAncestorCombo(tax, []item.Item{5, 8}, func(c []item.Item) {
		got = append(got, item.Format(c))
	})
	// chains: 5 -> 2 -> 0 ; 8 -> 4 -> 1. Combos exclude {5,8} itself and
	// any collapse; all are 2-item sets across the two chains.
	want := map[string]bool{
		"{4,5}": true, "{1,5}": true,
		"{2,8}": true, "{2,4}": true, "{1,2}": true,
		"{0,8}": true, "{0,4}": true, "{0,1}": true,
	}
	if len(got) != len(want) {
		t.Fatalf("combos = %v, want %d of them", got, len(want))
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected combo %s", g)
		}
	}
	// Same-chain itemsets collapse when both positions reach the same
	// ancestor; those must be skipped.
	var sameChain []string
	forEachAncestorCombo(tax, []item.Item{5, 6}, func(c []item.Item) {
		sameChain = append(sameChain, item.Format(c))
		if len(c) != 2 {
			t.Errorf("collapsed combo leaked: %v", c)
		}
	})
	for _, s := range sameChain {
		if s == "{2,2}" || s == "{0,0}" {
			t.Errorf("duplicate-item combo %s", s)
		}
	}
}

func TestLowestLargeItems(t *testing.T) {
	tax := helperTaxonomy()
	large := make([]bool, tax.NumItems())
	large[0] = true // has large descendant 5
	large[5] = true // leaf-level large
	large[4] = true // interior, no large descendant
	got := lowestLargeItems(tax, large)
	if !item.Equal(got, []item.Item{4, 5}) {
		t.Errorf("lowestLargeItems = %v, want {4,5}", got)
	}
}

func TestFragmentCount(t *testing.T) {
	if got := fragmentCount(100, 2, 0); got != 1 {
		t.Errorf("unlimited budget fragments = %d", got)
	}
	per := CandBytes(2)
	if got := fragmentCount(100, 2, 100*per); got != 1 {
		t.Errorf("exact fit fragments = %d", got)
	}
	if got := fragmentCount(100, 2, 50*per); got != 2 {
		t.Errorf("half fit fragments = %d", got)
	}
	if got := fragmentCount(100, 2, 1); got != 100 {
		t.Errorf("tiny budget fragments = %d", got)
	}
}

func TestSelectDuplicatesDeterministicAcrossNodes(t *testing.T) {
	ds := testDataset(t, 1500)
	parts := partsOf(ds.DB, 3)
	// Run FGD twice; counts must be identical (the selection is pure).
	run := func() *Result {
		r, err := Mine(ds.Taxonomy, parts, Config{
			Algorithm: HHPGMFGD, MinSupport: 0.03, MaxK: 2, MemoryBudget: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, bRes := run(), run()
	pa, pb := a.Stats.Pass(2), bRes.Stats.Pass(2)
	if pa == nil || pb == nil {
		t.Fatal("missing pass 2")
	}
	if pa.Duplicated != pb.Duplicated {
		t.Errorf("nondeterministic duplication: %d vs %d", pa.Duplicated, pb.Duplicated)
	}
}

func TestDuplicationRespectsBudget(t *testing.T) {
	ds := testDataset(t, 1500)
	for _, alg := range []Algorithm{HHPGMTGD, HHPGMPGD, HHPGMFGD} {
		for _, budget := range []int64{8 << 10, 64 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%d", alg, budget), func(t *testing.T) {
				res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{
					Algorithm: alg, MinSupport: 0.03, MaxK: 2, MemoryBudget: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				ps := res.Stats.Pass(2)
				if ps == nil {
					t.Skip("no pass 2 at this support")
				}
				slots := int(budget / CandBytes(2))
				if ps.Duplicated > slots {
					t.Errorf("duplicated %d candidates into %d slots", ps.Duplicated, slots)
				}
			})
		}
	}
}

func TestFinerGrainsDuplicateAtLeastAsMuchLoadRelief(t *testing.T) {
	// With a moderate budget the finer granules must achieve a max/mean
	// probe ratio no worse than plain H-HPGM on skewed data.
	ds := testDataset(t, 4000)
	budget := int64(512 << 10)
	ratios := map[Algorithm]float64{}
	for _, alg := range []Algorithm{HHPGM, HHPGMTGD, HHPGMPGD, HHPGMFGD} {
		res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 8), Config{
			Algorithm: alg, MinSupport: 0.02, MaxK: 2, MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Stats.Pass(2)
		if ps == nil {
			t.Fatal("no pass 2")
		}
		ratios[alg] = ps.ProbeSkew().MaxOverMean
	}
	if ratios[HHPGMFGD] > ratios[HHPGM]+0.15 {
		t.Errorf("FGD skew %.2f noticeably worse than H-HPGM %.2f", ratios[HHPGMFGD], ratios[HHPGM])
	}
	t.Logf("max/mean probes: H-HPGM %.2f, TGD %.2f, PGD %.2f, FGD %.2f",
		ratios[HHPGM], ratios[HHPGMTGD], ratios[HHPGMPGD], ratios[HHPGMFGD])
}

func TestCandBytesMonotone(t *testing.T) {
	if CandBytes(3) <= CandBytes(2) {
		t.Error("larger itemsets must cost more memory")
	}
}

var _ = itemset.Key
