package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// The hand-built case. Hierarchy (6 items):
//
//	0 clothes          4 footwear
//	├─ 1 outerwear     └─ 5 shoes
//	│  └─ 2 jacket
//	└─ 3 shirt
//
// Transactions and their ancestor closures:
//
//	t0 {jacket, shoes}  -> {0,1,2,4,5}
//	t1 {jacket, shirt}  -> {0,1,2,3}
//	t2 {shirt, shoes}   -> {0,3,4,5}
//	t3 {jacket}         -> {0,1,2}
//	t4 {shoes}          -> {4,5}
//	t5 {shirt, shoes}   -> {0,3,4,5}
//
// Supports: clothes 5, outerwear 3, jacket 3, shirt 3, footwear 4, shoes 4.
// At minimum count 3 every item is large. Pairs that are not an item with its
// ancestor: {0,4}=3 (t0,t2,t5), {0,5}=3 (t0,t2,t5), {3,4}=2, {3,5}=2 and
// {1,3},{1,4},{1,5},{2,3},{2,4},{2,5}=1 each. So L2 = {0,4}:3, {0,5}:3, and
// L3 is empty: {0,4,5} would hold shoes with its ancestor footwear.
func handBuilt() (*taxonomy.Taxonomy, *txn.DB, [][]itemset.Counted) {
	var b taxonomy.Builder
	clothes := b.AddRoot()
	outerwear := b.AddChild(clothes)
	jacket := b.AddChild(outerwear)
	shirt := b.AddChild(clothes)
	footwear := b.AddRoot()
	shoes := b.AddChild(footwear)
	db := txn.NewDB([]txn.Transaction{
		{TID: 0, Items: []item.Item{jacket, shoes}},
		{TID: 1, Items: []item.Item{jacket, shirt}},
		{TID: 2, Items: []item.Item{shirt, shoes}},
		{TID: 3, Items: []item.Item{jacket}},
		{TID: 4, Items: []item.Item{shoes}},
		{TID: 5, Items: []item.Item{shirt, shoes}},
	})
	want := [][]itemset.Counted{
		{
			{Items: []item.Item{0}, Count: 5}, {Items: []item.Item{1}, Count: 3},
			{Items: []item.Item{2}, Count: 3}, {Items: []item.Item{3}, Count: 3},
			{Items: []item.Item{4}, Count: 4}, {Items: []item.Item{5}, Count: 4},
		},
		{
			{Items: []item.Item{0, 4}, Count: 3}, {Items: []item.Item{0, 5}, Count: 3},
		},
	}
	return b.MustBuild(), db, want
}

func clone(large [][]itemset.Counted) [][]itemset.Counted {
	out := make([][]itemset.Counted, len(large))
	for k, level := range large {
		out[k] = append([]itemset.Counted(nil), level...)
	}
	return out
}

func TestOracleHandBuilt(t *testing.T) {
	tax, db, want := handBuilt()
	const minCount, samples = 3, 256

	// The hand-written supports are what the repo's reference miner finds.
	got, err := cumulate.Mine(tax, db, cumulate.Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Large, want) {
		t.Fatalf("cumulate.Mine = %v, hand-written expectation %v", got.Large, want)
	}

	checks, failures := oracle(tax, db, want, minCount, samples, rand.New(rand.NewSource(1)))
	if len(failures) > 0 || checks == 0 {
		t.Fatalf("oracle rejects the correct result: %d checks, failures %v", checks, failures)
	}

	// Every way of being wrong the oracle claims to catch.
	mutations := []struct {
		name   string
		mutate func(l [][]itemset.Counted) [][]itemset.Counted
		want   string
	}{
		{"item count off by one", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[0][0].Count = 4
			return l
		}, "item 0 has support 5"},
		{"large item missing", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[0] = l[0][:5]
			return l
		}, "item 5 has support 4"},
		{"pair count off by one", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[1][0].Count = 2
			return l
		}, "recount finds 3"},
		{"pair missing", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[1] = l[1][:1]
			return l
		}, "is not reported"},
		{"item with its ancestor", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[1] = append(l[1], itemset.Counted{Items: []item.Item{4, 5}, Count: 4})
			return l
		}, "holds an item with its ancestor"},
		{"below threshold", func(l [][]itemset.Counted) [][]itemset.Counted {
			l[1] = append(l[1], itemset.Counted{Items: []item.Item{3, 4}, Count: 2})
			return l
		}, "below the threshold"},
		{"subset missing", func(l [][]itemset.Counted) [][]itemset.Counted {
			return append(l, []itemset.Counted{{Items: []item.Item{0, 3, 5}, Count: 3}})
		}, "has subset"},
	}
	for _, m := range mutations {
		_, failures := oracle(tax, db, m.mutate(clone(want)), minCount, samples, rand.New(rand.NewSource(1)))
		found := false
		for _, f := range failures {
			found = found || strings.Contains(f.Error(), m.want)
		}
		if !found {
			t.Errorf("%s: oracle reported %v, want a failure containing %q", m.name, failures, m.want)
		}
	}
}

func TestDigestSeparatesResults(t *testing.T) {
	_, _, want := handBuilt()
	other := clone(want)
	other[1][1].Count++
	if digest(want) != digest(clone(want)) {
		t.Error("digest differs between equal results")
	}
	if digest(want) == digest(other) {
		t.Error("digest does not see a changed count")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	d := summarize([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if d.Q1 != 3.5 || d.Median != 13.5 || d.Q3 != 31 || d.Min != 1 || d.Max != 46 || d.N != 10 {
		t.Errorf("summarize = %+v", d)
	}
}
