package cumulate

import (
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// paperTaxonomy builds the Figure 1-style hierarchy used across these tests:
//
//	0 (root) -> 2, 3;  2 -> 5, 6;  3 -> 7
//	1 (root) -> 4;     4 -> 8, 9
func paperTaxonomy() *taxonomy.Taxonomy {
	return taxonomy.MustNew([]item.Item{
		item.None, item.None, 0, 0, 1, 2, 2, 3, 4, 4,
	})
}

func db(txns ...[]item.Item) *txn.DB {
	d := &txn.DB{}
	for i, items := range txns {
		d.Append(txn.Transaction{TID: int64(i + 1), Items: item.Dedup(item.Clone(items))})
	}
	return d
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		sup  float64
		n    int
		want int64
	}{
		{0.5, 10, 5},
		{0.3, 10, 3},
		{0.25, 10, 3}, // ceil(2.5)
		{0.01, 10, 1},
		{1e-9, 10, 1}, // floor of 1
		{1.0, 7, 7},
	}
	for _, c := range cases {
		if got := MinCount(c.sup, c.n); got != c.want {
			t.Errorf("MinCount(%g, %d) = %d, want %d", c.sup, c.n, got, c.want)
		}
	}
}

func TestClosureSemantics(t *testing.T) {
	tax := paperTaxonomy()
	// Transactions over leaves; ancestors count through the closure.
	d := db(
		[]item.Item{5, 8}, // closure: 5,2,0,8,4,1
		[]item.Item{6, 8}, // closure: 6,2,0,8,4,1
		[]item.Item{5, 9}, // closure: 5,2,0,9,4,1
		[]item.Item{7},    // closure: 7,3,0
	)
	res, err := Mine(tax, d, Config{MinSupport: 0.5}) // minCount 2
	if err != nil {
		t.Fatal(err)
	}
	idx := res.SupportIndex()
	wantCounts := map[string]int64{
		itemset.Key([]item.Item{0}):    4, // root 0 in every closure
		itemset.Key([]item.Item{2}):    3,
		itemset.Key([]item.Item{1}):    3,
		itemset.Key([]item.Item{4}):    3,
		itemset.Key([]item.Item{5}):    2,
		itemset.Key([]item.Item{8}):    2,
		itemset.Key([]item.Item{0, 1}): 3, // cross-tree pair of roots
		itemset.Key([]item.Item{2, 4}): 3,
		itemset.Key([]item.Item{0, 4}): 3,
		itemset.Key([]item.Item{1, 2}): 3,
	}
	for key, want := range wantCounts {
		if got := idx[key]; got != want {
			t.Errorf("sup_cou(key %x) = %d, want %d", key, got, want)
		}
	}
	// {5,2} would pair an item with its ancestor: must never be counted.
	if _, ok := idx[itemset.Key([]item.Item{2, 5})]; ok {
		t.Error("item-ancestor pair {2,5} leaked into large itemsets")
	}
}

func TestAncestorPairsPrunedFromC2(t *testing.T) {
	tax := paperTaxonomy()
	var l1 []itemset.Counted
	for _, x := range []item.Item{0, 1, 2, 5} {
		l1 = append(l1, itemset.Counted{Items: []item.Item{x}, Count: 1})
	}
	c2 := GenerateCandidates(tax, l1, 2)
	for i := range c2.Len() {
		if c := c2.At(i); tax.IsAncestor(c[0], c[1]) || tax.IsAncestor(c[1], c[0]) {
			t.Errorf("candidate %v contains an item and its ancestor", c)
		}
	}
	// 0-2, 0-5, 2-5 excluded; pairs with 1 kept: {0,1},{1,2},{1,5}.
	if c2.Len() != 3 {
		t.Errorf("C2 = %v, want 3 candidates", c2.Items)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	tax := paperTaxonomy()
	res, err := Mine(tax, &txn.DB{}, Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Large) != 0 {
		t.Errorf("empty db produced %d levels", len(res.Large))
	}
	if res.LargeK(1) != nil || res.LargeK(99) != nil || res.LargeK(0) != nil {
		t.Error("LargeK out of range must be nil")
	}
	// Support too high for everything: only L1 may exist or nothing.
	res, err = Mine(tax, db([]item.Item{5}, []item.Item{8}), Config{MinSupport: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Large) > 1 {
		t.Errorf("unexpected levels: %d", len(res.Large))
	}
	if _, err := Mine(nil, &txn.DB{}, Config{}); err == nil {
		t.Error("nil taxonomy must fail")
	}
}

func TestMaxK(t *testing.T) {
	tax := paperTaxonomy()
	d := db(
		[]item.Item{5, 8, 7},
		[]item.Item{5, 8, 7},
		[]item.Item{5, 8, 7},
	)
	full, err := Mine(tax, d, Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Large) < 3 {
		t.Fatalf("expected at least 3 levels, got %d", len(full.Large))
	}
	capped, err := Mine(tax, d, Config{MinSupport: 0.5, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Large) != 2 {
		t.Errorf("MaxK=2 produced %d levels", len(capped.Large))
	}
	one, err := Mine(tax, d, Config{MinSupport: 0.5, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Large) != 1 {
		t.Errorf("MaxK=1 produced %d levels", len(one.Large))
	}
}

func TestAprioriIgnoresHierarchy(t *testing.T) {
	d := db(
		[]item.Item{5, 8},
		[]item.Item{5, 8},
		[]item.Item{5, 9},
	)
	res, err := Apriori(d, Config{MinSupport: 0.6}, 10)
	if err != nil {
		t.Fatal(err)
	}
	idx := res.SupportIndex()
	if idx[itemset.Key([]item.Item{5})] != 3 {
		t.Errorf("sup(5) = %d", idx[itemset.Key([]item.Item{5})])
	}
	if _, ok := idx[itemset.Key([]item.Item{2})]; ok {
		t.Error("flat Apriori counted an ancestor")
	}
	if idx[itemset.Key([]item.Item{5, 8})] != 2 {
		t.Errorf("sup(5,8) = %d", idx[itemset.Key([]item.Item{5, 8})])
	}
}

func TestLargeMonotonicity(t *testing.T) {
	// Apriori property: support of a superset never exceeds any subset's.
	tax := paperTaxonomy()
	d := db(
		[]item.Item{5, 8, 7}, []item.Item{5, 8}, []item.Item{5, 9, 7},
		[]item.Item{6, 8}, []item.Item{5, 8, 7}, []item.Item{7, 9},
	)
	res, err := Mine(tax, d, Config{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	idx := res.SupportIndex()
	for k := 2; k <= len(res.Large); k++ {
		for _, c := range res.LargeK(k) {
			var walk itemset.Subsets
			for ok := walk.Reset(c.Items, k-1); ok; ok = walk.Next() {
				sub := walk.Items()
				if subCount, ok := idx[itemset.Key(sub)]; !ok {
					t.Errorf("subset %v of large %v is not large (anti-monotone violation)", sub, c.Items)
				} else if subCount < c.Count {
					t.Errorf("sup(%v)=%d < sup(%v)=%d", sub, subCount, c.Items, c.Count)
				}
			}
		}
	}
	if res.Probes == 0 {
		t.Error("probe accounting inactive")
	}
	if got := len(res.All()); got == 0 {
		t.Error("All() empty")
	}
}
