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
	large := make([]bool, tax.NumItems())
	var l1 []itemset.Counted
	var largeItems []item.Item
	for i, c := range counts {
		if c >= minCount {
			large[i] = true
			largeItems = append(largeItems, item.Item(i))
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	res.Large = append(res.Large, l1)
	if len(largeItems) < 2 || cfg.MaxK == 1 {
		return res, nil
	}

	prev := make([][]item.Item, len(l1))
	for i, c := range l1 {
		prev[i] = c.Items
	}
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		cands := GenerateCandidates(tax, prev, k)
		if len(cands) == 0 {
			break
		}
		index := itemset.BuildIndex(cands)
		counts := make([]int64, len(cands))
		member := KeepSet(tax, cands)
		view := taxonomy.NewView(tax, large, member)

		err := db.Scan(func(t txn.Transaction) error {
			scratch = ExtendFiltered(view, member, scratch[:0], t.Items)
			res.Probes += itemset.Choose(len(scratch), k)
			index.CountContained(scratch, 0, int32(len(cands)), counts, &stamps)
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
				lk = append(lk, itemset.Counted{Items: item.Clone(cands[id]), Count: c})
			}
		}
		if len(lk) == 0 {
			break
		}
		res.Large = append(res.Large, lk)
		prev = prev[:0]
		for _, c := range lk {
			prev = append(prev, c.Items)
		}
	}
	return res, nil
}

// GenerateCandidates produces C_k for pass k from the large (k-1)-itemsets:
// apriori join + prune, and for k = 2 the deletion of candidates containing
// an item and one of its ancestors.
func GenerateCandidates(tax *taxonomy.Taxonomy, prev [][]item.Item, k int) [][]item.Item {
	return GenerateCandidatesN(tax, prev, k, 1, nil)
}

// GenerateCandidatesN is GenerateCandidates with the pass boundary spread
// across workers: the k = 2 pair filter shards rows of the L_1 × L_1 triangle
// and k > 2 uses the sharded join+prune of itemset.GenParallel. Output is
// bit-identical (order included) to the sequential path at every worker
// count; hook, if non-nil, brackets each worker for tracing.
func GenerateCandidatesN(tax *taxonomy.Taxonomy, prev [][]item.Item, k, workers int, hook itemset.Hook) [][]item.Item {
	if k == 2 {
		flat := make([]item.Item, len(prev))
		for i, s := range prev {
			flat[i] = s[0]
		}
		item.Sort(flat)
		return pairsFiltered(tax, flat, workers, hook)
	}
	return itemset.GenParallel(prev, workers, hook)
}

// pairsFiltered builds C_2 = L_1 × L_1 minus item/ancestor pairs. Survivors
// are counted first and then written into an exactly-sized flat backing, so
// rejected pairs pin no memory for the rest of the pass (each candidate is a
// full cap-2 slice of the backing, unlike the old filter over Pairs output,
// which kept the whole triangle's backing array alive). Rows are sharded on
// cumulative pair count — row i contributes n-1-i pairs — so workers filter
// comparable shares; each shard writes at its exact offset, reproducing the
// sequential order bit-identically.
func pairsFiltered(tax *taxonomy.Taxonomy, large []item.Item, workers int, hook itemset.Hook) [][]item.Item {
	n := len(large)
	if n < 2 {
		return nil
	}
	rows := n - 1 // row i pairs large[i] with every later item
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	totalPairs := n * (n - 1) / 2
	bounds := make([]int, 1, workers+1)
	for cum, i, next := 0, 0, 1; i < rows && next < workers; i++ {
		cum += rows - i
		if cum >= totalPairs*next/workers {
			bounds = append(bounds, i+1)
			next++
		}
	}
	bounds = append(bounds, rows)
	nShards := len(bounds) - 1

	keepPair := func(a, b item.Item) bool {
		return !tax.IsAncestor(a, b) && !tax.IsAncestor(b, a)
	}

	// Phase 1: count survivors per shard.
	counts := make([]int, nShards)
	itemset.MustFan("pairs", nShards, hook, func(s int) {
		c := 0
		for i := bounds[s]; i < bounds[s+1]; i++ {
			for j := i + 1; j < n; j++ {
				if keepPair(large[i], large[j]) {
					c++
				}
			}
		}
		counts[s] = c
	})

	total := 0
	offs := make([]int, nShards+1)
	for s, c := range counts {
		total += c
		offs[s+1] = total
	}
	if total == 0 {
		return nil
	}

	// Phase 2: each shard fills its own range of the backing.
	backing := make([]item.Item, 2*total)
	out := make([][]item.Item, total)
	itemset.MustFan("pairs", nShards, hook, func(s int) {
		pos := offs[s]
		for i := bounds[s]; i < bounds[s+1]; i++ {
			for j := i + 1; j < n; j++ {
				if !keepPair(large[i], large[j]) {
					continue
				}
				p := backing[2*pos : 2*pos+2 : 2*pos+2]
				p[0], p[1] = large[i], large[j]
				out[pos] = p
				pos++
			}
		}
	})
	return out
}

// KeepSet flags every item that appears in some candidate. It serves two
// roles per pass, from one computation: for interior items these are the
// ancestors that survive "delete any ancestors in T that are not present in
// any of the candidates in C_k" (the View's keep set), and for all items it
// is the membership filter applied before subset enumeration — transaction
// items outside the set cannot contribute to any candidate.
func KeepSet(tax *taxonomy.Taxonomy, cands [][]item.Item) []bool {
	keep := make([]bool, tax.NumItems())
	for _, c := range cands {
		for _, x := range c {
			keep[x] = true
		}
	}
	return keep
}

// ExtendFiltered computes the extended, candidate-filtered transaction used
// for counting: items plus kept ancestors, restricted to candidate members.
// A candidate is contained in the original transaction's ancestor closure
// exactly when it is a subset of this extension, so enumerating its
// k-subsets against a candidate table yields closure-semantics support
// counts with no per-transaction deduplication (subsets of a set are
// distinct). The parallel engines in internal/core share it.
func ExtendFiltered(view *taxonomy.View, member []bool, dst []item.Item, items []item.Item) []item.Item {
	dst = view.ExtendPruned(dst, items)
	w := 0
	for _, x := range dst {
		if member[x] {
			dst[w] = x
			w++
		}
	}
	return dst[:w]
}

// FilteredExtension binds ExtendFiltered to one pass's view and member set,
// in the shape a driver count phase takes as its extension function.
func FilteredExtension(view *taxonomy.View, member []bool) func(dst []item.Item, t txn.Transaction) []item.Item {
	return func(dst []item.Item, t txn.Transaction) []item.Item {
		return ExtendFiltered(view, member, dst, t.Items)
	}
}
