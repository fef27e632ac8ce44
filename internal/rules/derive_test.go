package rules

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// refForEachSubset is the callback k-subset enumerator rule derivation used
// before it moved onto itemset.Subsets: fn sees every k-subset of set in
// lexicographic order, in one reused scratch slice.
func refForEachSubset(set []item.Item, k int, fn func([]item.Item)) {
	n := len(set)
	if k <= 0 || k > n {
		return
	}
	sub := make([]item.Item, k)
	idx := make([]int, k)
	for d := range idx {
		idx[d], sub[d] = d, set[d]
	}
	for {
		fn(sub)
		d := k - 1
		for d >= 0 && idx[d] == n-k+d {
			d--
		}
		if d < 0 {
			return
		}
		idx[d]++
		sub[d] = set[idx[d]]
		for j := d + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
			sub[j] = set[idx[j]]
		}
	}
}

// refDerive is Derive as it was before the walker, kept as its reference:
// antecedents by ascending size from refForEachSubset, each looked up
// through a fresh itemset.Key, the consequent built before the confidence
// check. It expects valid input (Derive's validation is not repeated).
func refDerive(tax *taxonomy.Taxonomy, large []itemset.Counted, support map[string]int64, cfg Config) []Rule {
	var out []Rule
	for _, l := range large {
		k := len(l.Items)
		for asz := 1; asz < k; asz++ {
			refForEachSubset(l.Items, asz, func(ante []item.Item) {
				cons := item.AppendMinus(nil, l.Items, ante)
				anteCount, ok := support[itemset.Key(ante)]
				if !ok || anteCount <= 0 {
					return
				}
				conf := float64(l.Count) / float64(anteCount)
				if conf < cfg.MinConfidence || consequentRedundant(tax, ante, cons) {
					return
				}
				out = append(out, Rule{
					Antecedent: item.Clone(ante),
					Consequent: cons,
					Support:    float64(l.Count) / float64(cfg.NumTxns),
					Confidence: conf,
					Count:      l.Count,
				})
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if c := item.Compare(out[i].Antecedent, out[j].Antecedent); c != 0 {
			return c < 0
		}
		return item.Compare(out[i].Consequent, out[j].Consequent) < 0
	})
	return out
}

// checkMatchesReference derives with Derive and refDerive and fails unless
// both return the same rules in the same order, field for field.
func checkMatchesReference(t *testing.T, tax *taxonomy.Taxonomy, large []itemset.Counted, support map[string]int64, cfg Config) []Rule {
	t.Helper()
	got, err := Derive(tax, large, support, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refDerive(tax, large, support, cfg)
	if len(got) != len(want) {
		t.Fatalf("minconf %g: %d rules, reference %d", cfg.MinConfidence, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !item.Equal(g.Antecedent, w.Antecedent) || !item.Equal(g.Consequent, w.Consequent) ||
			g.Support != w.Support || g.Confidence != w.Confidence || g.Count != w.Count {
			t.Fatalf("minconf %g: rule %d is %+v, reference %+v", cfg.MinConfidence, i, g, w)
		}
	}
	return got
}

// TestDeriveMatchesReference: over small random catalogs mined by Cumulate
// at random thresholds, some support entries dropped or zeroed (the lookups
// Derive skips), Derive returns refDerive's rules.
func TestDeriveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 30; round++ {
		ds, err := gen.Generate(gen.Params{
			Name: "derive", NumTxns: 300 + rng.Intn(300), AvgTxnSize: 3 + 2*rng.Float64(),
			AvgPatternSize: 3, NumPatterns: 20, NumItems: 40 + rng.Intn(60),
			Roots: 2 + rng.Intn(4), Fanout: 2 + rng.Intn(3),
			CorrelationMean: 0.5, CorruptionMean: 0.5, CorruptionSD: 0.1,
			Seed: int64(round),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.05 + 0.1*rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		support := res.SupportIndex()
		if round%3 == 0 {
			for key := range support {
				switch rng.Intn(20) {
				case 0:
					delete(support, key)
				case 1:
					support[key] = 0
				}
			}
		}
		cfg := Config{MinConfidence: rng.Float64(), NumTxns: ds.DB.Len()}
		if round%5 == 0 {
			cfg.MinConfidence = 0
		}
		checkMatchesReference(t, ds.Taxonomy, res.All(), support, cfg)
	}
}

// fpgInput is a mined dataset: its catalog, size and levels.
type fpgInput struct {
	tax     *taxonomy.Taxonomy
	numTxns int
	res     *engines.Result
}

// fpgLevels mines R30F5 × 0.002 (6,400 transactions) with FPG at minsup
// 1 %, unbounded K — the batch-fpg workload's result shape at test size —
// once per test binary.
var fpgLevels = sync.OnceValues(func() (fpgInput, error) {
	ds, err := gen.Generate(gen.R30F5().Scaled(0.002))
	if err != nil {
		return fpgInput{}, err
	}
	var parts []txn.Scanner
	for _, p := range txn.Partition(ds.DB, 2) {
		parts = append(parts, p)
	}
	res, err := engines.Run(ds.Taxonomy, parts, engines.Spec{Algorithm: engines.FPG, MinSupport: 0.01})
	return fpgInput{ds.Taxonomy, ds.DB.Len(), res}, err
})

// TestDeriveMatchesReferenceFPGScale: on FPG-scale levels (itemsets up to
// size 7 or so) at three confidence thresholds, Derive returns refDerive's
// rules.
func TestDeriveMatchesReferenceFPGScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mines R30F5 x 0.002")
	}
	in, err := fpgLevels()
	if err != nil {
		t.Fatal(err)
	}
	support := in.res.SupportIndex()
	for _, minconf := range []float64{0.3, 0.6, 0.9} {
		rs := checkMatchesReference(t, in.tax, in.res.All(), support, Config{MinConfidence: minconf, NumTxns: in.numTxns})
		if len(rs) == 0 {
			t.Fatalf("minconf %g: no rules to compare", minconf)
		}
	}
}

// rejectingLevel returns a level of n-itemsets over a flat catalog, and a
// support map holding every proper subset at ten times the itemset's count,
// so every candidate rule fails a minimum confidence above 0.1.
func rejectingLevel(n int) (*taxonomy.Taxonomy, []itemset.Counted, map[string]int64) {
	parents := make([]item.Item, 64)
	for i := range parents {
		parents[i] = item.None
	}
	var large []itemset.Counted
	support := map[string]int64{}
	for first := 0; first+n <= len(parents); first += 3 {
		set := make([]item.Item, n)
		for i := range set {
			set[i] = item.Item(first + i)
		}
		large = append(large, itemset.Counted{Items: set, Count: 5})
		for k := 1; k < n; k++ {
			refForEachSubset(set, k, func(sub []item.Item) { support[itemset.Key(sub)] = 50 })
		}
	}
	return taxonomy.MustNew(parents), large, support
}

// TestDeriveAllocsIndependentOfSubsets: a subset that yields no rule
// allocates nothing, so a level of 9-itemsets (510 antecedents each) costs
// Derive the allocations a level of 5-itemsets (30 each) does.
func TestDeriveAllocsIndependentOfSubsets(t *testing.T) {
	allocs := func(n int) float64 {
		tax, large, support := rejectingLevel(n)
		cfg := Config{MinConfidence: 0.5, NumTxns: 100}
		return testing.AllocsPerRun(20, func() {
			if rs, err := Derive(tax, large, support, cfg); err != nil || len(rs) != 0 {
				t.Fatalf("%d rules, err %v; want none", len(rs), err)
			}
		})
	}
	if five, nine := allocs(5), allocs(9); five != nine {
		t.Errorf("Derive allocates %v times over 5-itemsets, %v over 9-itemsets", five, nine)
	}
}

// TestPruneRatioFromGeneralizedItem: the ancestor rule of {3,5} ⇒ {9} that
// generalizes 5 to its parent 2 is {2,3} ⇒ {9}, where the parent sorts to
// another position. Its expected support must be the ancestor's times
// exactly sup(5)/sup(2): the rule survives at exactly R times that and is
// pruned one ulp below. The counts are picked so that the position-by-
// position product sup(3)/sup(2) · sup(5)/sup(3) rounds to another
// threshold, which one of the two checks would catch.
func TestPruneRatioFromGeneralizedItem(t *testing.T) {
	const r, ancSupport = 1.5, 0.3
	const c2, c5 = 30, 7
	var c3 int64
	for c := int64(8); c < 1000; c++ {
		tele := float64(c) / c2 * (c5 / float64(c))
		if r*(ancSupport*tele) != r*(ancSupport*(float64(c5)/c2)) {
			c3 = c
			break
		}
	}
	if c3 == 0 {
		t.Fatal("no count makes the position-by-position product differ")
	}
	tax := testTaxonomy()
	support := map[string]int64{
		itemset.Key([]item.Item{2}): c2,
		itemset.Key([]item.Item{3}): c3,
		itemset.Key([]item.Item{5}): c5,
	}
	anc := Rule{Antecedent: []item.Item{2, 3}, Consequent: []item.Item{9}, Support: ancSupport, Confidence: 0.9}
	threshold := r * (ancSupport * (float64(c5) / c2))
	for _, tc := range []struct {
		support float64
		kept    bool
	}{{threshold, true}, {math.Nextafter(threshold, 0), false}} {
		rule := Rule{Antecedent: []item.Item{3, 5}, Consequent: []item.Item{9}, Support: tc.support, Confidence: 0.1}
		kept := Prune(tax, []Rule{rule, anc}, support, r)
		if got := len(kept) == 2; got != tc.kept {
			t.Errorf("support %v (threshold %v): kept %v, want %v", tc.support, threshold, got, tc.kept)
		}
	}
}

// BenchmarkDerive: one Derive per op over the FPG-scale levels of
// fpgLevels. kept derives at minconf 0.6; rejected doubles every support in
// the map, so each antecedent is looked up and no rule passes confidence.
func BenchmarkDerive(b *testing.B) {
	in, err := fpgLevels()
	if err != nil {
		b.Fatal(err)
	}
	large, support := in.res.All(), in.res.SupportIndex()
	doubled := make(map[string]int64, len(support))
	for key, c := range support {
		doubled[key] = 2 * c
	}
	cfg := Config{MinConfidence: 0.6, NumTxns: in.numTxns}
	for _, bc := range []struct {
		name    string
		support map[string]int64
	}{{"kept", support}, {"rejected", doubled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Derive(in.tax, large, bc.support, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
