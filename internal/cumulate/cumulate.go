// Package cumulate implements the sequential baselines the paper builds on:
// Cumulate (Srikant & Agrawal, VLDB'95) for generalized association rules
// over a classification hierarchy, and plain Apriori (Agrawal & Srikant,
// VLDB'94) for flat itemsets. The parallel algorithms in internal/core must
// produce exactly the large itemsets and support counts Cumulate produces;
// the integration tests enforce that equivalence.
package cumulate

import (
	"fmt"
	"math"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// Config controls a sequential mining run.
type Config struct {
	// MinSupport is the minimum support as a fraction of the database size
	// (0.003 means 0.3%).
	MinSupport float64
	// MaxK bounds the itemset size; 0 means run until L_k is empty.
	MaxK int
}

// MinCount converts fractional support into the smallest absolute count that
// satisfies it for a database of n transactions.
func MinCount(minSupport float64, n int) int64 {
	c := int64(math.Ceil(minSupport*float64(n) - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Result holds the large itemsets of every pass.
type Result struct {
	itemset.Levels
	NumTxns int
	// Probes counts the k-subsets of extended transactions offered to the
	// candidate table across all passes k >= 2: C(|t'|, k) per transaction.
	Probes int64
}

// Mine runs sequential Cumulate: pass 1 counts every item and its ancestors;
// pass k >= 2 generates candidates from L_{k-1} (deleting item/ancestor pairs
// at k = 2 and pruning ancestors absent from C_k), then counts candidates
// contained in the ancestor-extended transactions.
func Mine(tax *taxonomy.Taxonomy, db txn.Scanner, cfg Config) (*Result, error) {
	if tax == nil {
		return nil, fmt.Errorf("cumulate: nil taxonomy")
	}
	return mine(tax, db, cfg)
}

// Apriori runs plain Apriori, ignoring any hierarchy: only literal basket
// items are counted. It serves as the non-generalized comparison point.
func Apriori(db txn.Scanner, cfg Config, numItems int) (*Result, error) {
	// A taxonomy with no edges degenerates Cumulate to Apriori: every item
	// is its own root, extension adds nothing, and no ancestor pairs exist.
	parent := make([]item.Item, numItems)
	for i := range parent {
		parent[i] = item.None
	}
	flat, err := taxonomy.New(parent)
	if err != nil {
		return nil, err
	}
	return mine(flat, db, cfg)
}

func mine(tax *taxonomy.Taxonomy, db txn.Scanner, cfg Config) (*Result, error) {
	n := db.Len()
	if n == 0 {
		return &Result{}, nil
	}
	minCount := MinCount(cfg.MinSupport, n)
	res := &Result{NumTxns: n}

	// Pass 1: count items and all their ancestors, once per transaction.
	counts := make([]int64, tax.NumItems())
	scratch := make([]item.Item, 0, 64)
	var stamps itemset.Stamps
	err := db.Scan(func(t txn.Transaction) error {
		scratch = tax.ExtendTransaction(scratch[:0], t.Items)
		for _, x := range scratch {
			counts[x]++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cumulate: pass 1: %w", err)
	}
	var l1 []itemset.Counted
	var largeItems []item.Item
	for i, c := range counts {
		if c >= minCount {
			largeItems = append(largeItems, item.Item(i))
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	res.Large = append(res.Large, l1)
	if len(largeItems) < 2 || cfg.MaxK == 1 {
		return res, nil
	}

	prev := l1
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		cands := GenerateCandidates(tax, prev, k)
		if cands.Len() == 0 {
			break
		}
		index := itemset.NewIndex(cands)
		counts := make([]int64, cands.Len())
		member := Keep(tax, cands)

		// The oracle extends the reference way, every chain walked and the
		// result sorted, then filters to candidate members; the engines' slot
		// table (taxonomy.Closure) shares none of this code.
		err := db.Scan(func(t txn.Transaction) error {
			scratch = filterMembers(tax.ExtendTransaction(scratch[:0], t.Items), member)
			res.Probes += itemset.Choose(len(scratch), k)
			index.CountContained(scratch, counts, &stamps)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cumulate: pass %d: %w", k, err)
		}
		// cands is lexicographically sorted, so L_k comes out sorted too. The
		// survivors are cloned so the result does not pin C_k's arena.
		var lk []itemset.Counted
		for id, c := range counts {
			if c >= minCount {
				lk = append(lk, itemset.Counted{Items: item.Clone(cands.At(id)), Count: c})
			}
		}
		if len(lk) == 0 {
			break
		}
		res.Large = append(res.Large, lk)
		prev = lk
	}
	return res, nil
}

// GenerateCandidates produces C_k for pass k from prev, the large
// (k-1)-itemsets as the barrier recorded them (one length, canonical
// order): apriori join + prune (itemset.GenFlat), and for k = 2 the
// deletion of candidates containing an item and one of its ancestors.
func GenerateCandidates(tax *taxonomy.Taxonomy, prev []itemset.Counted, k int) itemset.Sets {
	return generate(tax, itemset.LevelSets(prev), k)
}

// GenerateCandidatesN is GenerateCandidates over slices; workers and hook
// are unused. It remains for the benchmark harness only, until its port to
// itemset.Sets (ROADMAP item 1).
func GenerateCandidatesN(tax *taxonomy.Taxonomy, prev [][]item.Item, k, workers int, hook itemset.Hook) [][]item.Item {
	return generate(tax, itemset.FromSlices(prev), k).Slices()
}

// generate is GenerateCandidates over L_{k-1} laid out as one arena.
func generate(tax *taxonomy.Taxonomy, prev itemset.Sets, k int) itemset.Sets {
	if k == 2 {
		return pairsFiltered(tax, prev.Items)
	}
	return itemset.GenFlat(prev)
}

// pairsFiltered builds C_2 = L_1 × L_1 minus item/ancestor pairs from the
// ascending large items. Survivors are counted first and then written into
// an exactly sized arena, so rejected pairs pin no memory for the rest of
// the pass.
func pairsFiltered(tax *taxonomy.Taxonomy, large []item.Item) itemset.Sets {
	n := len(large)
	keepPair := func(a, b item.Item) bool {
		return !tax.IsAncestor(a, b) && !tax.IsAncestor(b, a)
	}
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if keepPair(large[i], large[j]) {
				total++
			}
		}
	}
	arena := make([]item.Item, 0, 2*total)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if keepPair(large[i], large[j]) {
				arena = append(arena, large[i], large[j])
			}
		}
	}
	return itemset.Sets{K: 2, Items: arena}
}

// Keep flags every item that appears in some candidate. It serves two roles
// per pass, from one computation: for interior items these are the
// ancestors that survive "delete any ancestors in T that are not present in
// any of the candidates in C_k" (the View's keep set), and for all items it
// is the membership filter applied before subset enumeration — transaction
// items outside the set cannot contribute to any candidate.
func Keep(tax *taxonomy.Taxonomy, cands itemset.Sets) []bool {
	keep := make([]bool, tax.NumItems())
	for _, x := range cands.Items {
		keep[x] = true
	}
	return keep
}

// KeepSet is Keep over slices, for the benchmark harness only until its
// port to itemset.Sets (ROADMAP item 1).
func KeepSet(tax *taxonomy.Taxonomy, cands [][]item.Item) []bool {
	return Keep(tax, itemset.FromSlices(cands))
}

// filterMembers drops, in place, the items of ext outside member.
func filterMembers(ext []item.Item, member []bool) []item.Item {
	w := 0
	for _, x := range ext {
		if member[x] {
			ext[w] = x
			w++
		}
	}
	return ext[:w]
}
