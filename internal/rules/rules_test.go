package rules

import (
	"strings"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// hierarchy: 0 -> 2,3 ; 1 -> 4 ; 2 -> 5,6 ; 4 -> 8,9 ; 3 -> 7
func testTaxonomy() *taxonomy.Taxonomy {
	return taxonomy.MustNew([]item.Item{
		item.None, item.None, 0, 0, 1, 2, 2, 3, 4, 4,
	})
}

func minedResult(t *testing.T) (*cumulate.Result, *taxonomy.Taxonomy, int) {
	t.Helper()
	tax := testTaxonomy()
	d := &txn.DB{}
	baskets := [][]item.Item{
		{5, 8}, {5, 8}, {5, 8}, {5, 9}, {6, 8}, {7},
	}
	for i, b := range baskets {
		d.Append(txn.Transaction{TID: int64(i + 1), Items: item.Dedup(item.Clone(b))})
	}
	res, err := cumulate.Mine(tax, d, cumulate.Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return res, tax, d.Len()
}

func TestDeriveBasics(t *testing.T) {
	res, tax, n := minedResult(t)
	rs, err := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 0.5, NumTxns: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules derived")
	}
	// Every rule respects the thresholds and the hierarchy constraint.
	for _, r := range rs {
		if r.Confidence < 0.5 {
			t.Errorf("rule %v below confidence threshold", r)
		}
		if r.Support <= 0 || r.Support > 1 {
			t.Errorf("rule %v support out of range", r)
		}
		for _, y := range r.Consequent {
			for _, x := range r.Antecedent {
				if tax.IsAncestor(y, x) {
					t.Errorf("redundant rule survived: %v", r)
				}
			}
		}
		if item.Intersects(r.Antecedent, r.Consequent) {
			t.Errorf("antecedent and consequent overlap: %v", r)
		}
	}
	// Rules are sorted by confidence descending.
	for i := 1; i < len(rs); i++ {
		if rs[i].Confidence > rs[i-1].Confidence {
			t.Errorf("rules unsorted at %d", i)
		}
	}
}

func TestDeriveConfidenceExact(t *testing.T) {
	res, tax, n := minedResult(t)
	idx := res.SupportIndex()
	rs, err := Derive(tax, res.All(), idx, Config{MinConfidence: 0.01, NumTxns: n})
	if err != nil {
		t.Fatal(err)
	}
	// Find rule {5} => {8}: sup(5,8)=3 of 6, sup(5)=4 -> conf 0.75.
	found := false
	for _, r := range rs {
		if item.Equal(r.Antecedent, []item.Item{5}) && item.Equal(r.Consequent, []item.Item{8}) {
			found = true
			if r.Confidence != 0.75 {
				t.Errorf("conf(5=>8) = %g, want 0.75", r.Confidence)
			}
			if r.Support != 0.5 {
				t.Errorf("sup(5=>8) = %g, want 0.5", r.Support)
			}
		}
	}
	if !found {
		t.Error("rule {5}=>{8} missing")
	}
}

func TestDeriveThresholdFilters(t *testing.T) {
	res, tax, n := minedResult(t)
	low, _ := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 0.1, NumTxns: n})
	high, _ := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 0.9, NumTxns: n})
	if len(high) >= len(low) {
		t.Errorf("raising confidence must shrink the rule set: %d vs %d", len(high), len(low))
	}
}

func TestDeriveValidation(t *testing.T) {
	res, tax, _ := minedResult(t)
	if _, err := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 0.5, NumTxns: 0}); err == nil {
		t.Error("zero NumTxns must fail")
	}
	if _, err := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 1.5, NumTxns: 10}); err == nil {
		t.Error("confidence > 1 must fail")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: []item.Item{1},
		Consequent: []item.Item{2},
		Support:    0.25,
		Confidence: 0.8,
	}
	s := r.String()
	if !strings.Contains(s, "=>") || !strings.Contains(s, "25.00%") || !strings.Contains(s, "80.0%") {
		t.Errorf("String = %q", s)
	}
}

func TestFormatNames(t *testing.T) {
	rs := []Rule{{
		Antecedent: []item.Item{0},
		Consequent: []item.Item{1},
		Support:    0.5,
		Confidence: 1,
	}}
	names := []string{"clothes", "footwear"}
	out := Format(rs, names)
	if !strings.Contains(out, "clothes") || !strings.Contains(out, "footwear") {
		t.Errorf("Format = %q", out)
	}
	// Missing names fall back to numeric ids.
	out = Format([]Rule{{Antecedent: []item.Item{5}, Consequent: []item.Item{6}}}, names)
	if !strings.Contains(out, "i5") {
		t.Errorf("fallback missing: %q", out)
	}
	if got := Format(rs, nil); !strings.Contains(got, "{0}") {
		t.Errorf("nil names: %q", got)
	}
}

func TestPruneKeepsInterestingRules(t *testing.T) {
	res, tax, n := minedResult(t)
	rs, err := Derive(tax, res.All(), res.SupportIndex(), Config{MinConfidence: 0.2, NumTxns: n})
	if err != nil {
		t.Fatal(err)
	}
	kept := Prune(tax, rs, res.SupportIndex(), 1.1)
	if len(kept) > len(rs) {
		t.Fatal("Prune grew the rule set")
	}
	// R <= 0 disables pruning.
	if got := Prune(tax, rs, res.SupportIndex(), 0); len(got) != len(rs) {
		t.Error("r=0 must be a no-op")
	}
	// Leaf-level rules that merely mirror their ancestor rule should be
	// dropped at a high interest threshold.
	aggressive := Prune(tax, rs, res.SupportIndex(), 1000)
	if len(aggressive) >= len(rs) {
		t.Errorf("r=1000 pruned nothing (%d rules)", len(rs))
	}
}

func TestDeriveSkipsSingletons(t *testing.T) {
	tax := testTaxonomy()
	large := []itemset.Counted{{Items: []item.Item{5}, Count: 3}}
	rs, err := Derive(tax, large, map[string]int64{itemset.Key([]item.Item{5}): 3},
		Config{MinConfidence: 0.1, NumTxns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("1-itemsets cannot form rules, got %d", len(rs))
	}
}

func TestDeriveEmptyAndSingletonInputs(t *testing.T) {
	tax := testTaxonomy()
	// No large itemsets at all: no rules, no error.
	rs, err := Derive(tax, nil, map[string]int64{}, Config{MinConfidence: 0.5, NumTxns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("empty input produced %d rules", len(rs))
	}
	// Empty itemsets and singletons are legal input (L_1 is always present in
	// mining output) and must be skipped silently, not panic or emit rules.
	large := []itemset.Counted{
		{Items: nil, Count: 5},
		{Items: []item.Item{}, Count: 4},
		{Items: []item.Item{5}, Count: 3},
		{Items: []item.Item{8}, Count: 2},
	}
	rs, err = Derive(tax, large, map[string]int64{
		itemset.Key([]item.Item{5}): 3,
		itemset.Key([]item.Item{8}): 2,
	}, Config{MinConfidence: 0, NumTxns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("degenerate itemsets produced rules: %v", rs)
	}
}

func TestDeriveRejectsMalformedItemsets(t *testing.T) {
	tax := testTaxonomy()
	support := map[string]int64{}
	cases := []struct {
		name  string
		items []item.Item
	}{
		{"out of universe", []item.Item{5, 99}},
		{"negative item", []item.Item{-2, 5}},
		{"unsorted", []item.Item{8, 5}},
		{"duplicate", []item.Item{5, 5}},
	}
	for _, tc := range cases {
		large := []itemset.Counted{{Items: tc.items, Count: 3}}
		if _, err := Derive(tax, large, support, Config{MinConfidence: 0.5, NumTxns: 10}); err == nil {
			t.Errorf("%s: Derive accepted itemset %v", tc.name, tc.items)
		}
	}
}

func TestPruneEmptyAndMalformedRules(t *testing.T) {
	tax := testTaxonomy()
	support := map[string]int64{}
	// Empty rule set: identity, not a panic.
	if got := Prune(tax, nil, support, 1.1); len(got) != 0 {
		t.Errorf("Prune(nil) = %v", got)
	}
	if got := Prune(tax, []Rule{}, support, 1.1); len(got) != 0 {
		t.Errorf("Prune(empty) = %v", got)
	}
	// Rules holding out-of-universe items have no ancestors to compare
	// against; Prune must keep them rather than index the parent vector out
	// of range.
	rs := []Rule{
		{Antecedent: []item.Item{99}, Consequent: []item.Item{5}, Support: 0.1, Confidence: 0.5},
		{Antecedent: []item.Item{5}, Consequent: []item.Item{-7}, Support: 0.1, Confidence: 0.5},
	}
	if got := Prune(tax, rs, support, 1.1); len(got) != len(rs) {
		t.Errorf("Prune dropped rules lacking ancestor evidence: kept %d of %d", len(got), len(rs))
	}
}
