// Package rules derives generalized association rules from large itemsets —
// the second subproblem of §2 of the paper. For every large itemset X and
// every non-empty proper subset Y ⊂ X, the rule (X−Y) ⇒ Y holds when its
// confidence sup(X)/sup(X−Y) meets the minimum, subject to the hierarchy
// constraint that no item in the consequent is an ancestor of an item in the
// antecedent (such rules are redundant: x ⇒ ancestor(x) always has 100%
// confidence).
//
// As an extension beyond the paper's evaluation, Prune applies Srikant &
// Agrawal's R-interestingness measure, dropping rules whose support and
// confidence are close to what their "ancestor rules" already predict.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// Rule is one association rule with its measures.
type Rule struct {
	Antecedent []item.Item // X − Y
	Consequent []item.Item // Y
	// Support is the fraction of transactions containing X = antecedent ∪
	// consequent.
	Support float64
	// Confidence is sup(X) / sup(antecedent).
	Confidence float64
	// Count is the absolute support count of X.
	Count int64
}

// String renders "{1,5} => {9} (sup 1.2%, conf 63.0%)".
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup %.2f%%, conf %.1f%%)",
		item.Format(r.Antecedent), item.Format(r.Consequent),
		r.Support*100, r.Confidence*100)
}

// Config controls rule derivation.
type Config struct {
	// MinConfidence is the confidence threshold in [0,1].
	MinConfidence float64
	// NumTxns is the database size used to turn counts into support
	// fractions; it must be positive.
	NumTxns int
}

// Derive generates every rule meeting the configuration from the large
// itemsets. support maps itemset keys (itemset.Key) to absolute counts and
// must cover every subset of every large itemset of size >= 1 — exactly what
// the mining result provides, because every subset of a large itemset is
// large. Rules are returned sorted by descending confidence, then descending
// absolute support count (Count), then antecedent and then consequent
// (item.Compare), a total order. internal/serve ranks by the same first two
// keys and relies on this order to skip sorting at index build.
//
// Antecedents are walked with one itemset.Subsets and looked up through one
// reused key buffer, so a subset that yields no rule allocates nothing; a
// kept rule allocates its antecedent and consequent in one slice.
func Derive(tax *taxonomy.Taxonomy, large []itemset.Counted, support map[string]int64, cfg Config) ([]Rule, error) {
	if cfg.NumTxns <= 0 {
		return nil, fmt.Errorf("rules: NumTxns must be positive")
	}
	if cfg.MinConfidence < 0 || cfg.MinConfidence > 1 {
		return nil, fmt.Errorf("rules: MinConfidence %g out of [0,1]", cfg.MinConfidence)
	}
	var (
		out  []Rule
		walk itemset.Subsets
		key  []byte      // the antecedent's support key
		cons []item.Item // the consequent, until the rule is kept
	)
	universe := item.Item(tax.NumItems())
	for _, l := range large {
		// Empty and single-item itemsets admit no rule (a rule needs a
		// non-empty antecedent and consequent); they are legal input —
		// the mining result always includes L_1.
		if len(l.Items) < 2 {
			continue
		}
		// Defend against malformed input instead of panicking deep inside
		// the hierarchy queries: every item must be inside the taxonomy's
		// universe and the itemset canonical.
		if !item.IsSorted(l.Items) {
			return nil, fmt.Errorf("rules: itemset %v not canonical", l.Items)
		}
		if last := l.Items[len(l.Items)-1]; last >= universe || l.Items[0] < 0 {
			return nil, fmt.Errorf("rules: itemset %v outside taxonomy universe [0,%d)", l.Items, universe)
		}
		k := len(l.Items)
		// Largest antecedents first, so the walker and the key buffer reach
		// their size on an itemset's first walk; the final sort fixes the
		// order.
		for asz := k - 1; asz >= 1; asz-- {
			for more := walk.Reset(l.Items, asz); more; more = walk.Next() {
				ante := walk.Items()
				key = itemset.AppendKey(key[:0], ante)
				anteCount, ok := support[string(key)]
				if !ok || anteCount <= 0 {
					continue // should not happen for valid input
				}
				conf := float64(l.Count) / float64(anteCount)
				if conf < cfg.MinConfidence {
					continue
				}
				cons = item.AppendMinus(cons[:0], l.Items, ante)
				if consequentRedundant(tax, ante, cons) {
					continue
				}
				both := make([]item.Item, k)
				copy(both, ante)
				copy(both[asz:], cons)
				out = append(out, Rule{
					Antecedent: both[:asz:asz],
					Consequent: both[asz:],
					Support:    float64(l.Count) / float64(cfg.NumTxns),
					Confidence: conf,
					Count:      l.Count,
				})
			}
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
	return out, nil
}

// consequentRedundant reports whether some consequent item is an ancestor of
// some antecedent item (the §2 restriction on generalized rules).
func consequentRedundant(tax *taxonomy.Taxonomy, ante, cons []item.Item) bool {
	for _, y := range cons {
		for _, x := range ante {
			if tax.IsAncestor(y, x) {
				return true
			}
		}
	}
	return false
}

// Format renders rules one per line, resolving item names when names is
// non-nil (names[i] labels item i; empty or missing entries fall back to the
// numeric form).
func Format(rs []Rule, names []string) string {
	var b strings.Builder
	label := func(items []item.Item) string {
		if names == nil {
			return item.Format(items)
		}
		parts := make([]string, len(items))
		for i, x := range items {
			if int(x) < len(names) && names[x] != "" {
				parts[i] = names[x]
			} else {
				parts[i] = fmt.Sprintf("i%d", int32(x))
			}
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	for _, r := range rs {
		fmt.Fprintf(&b, "%s => %s (sup %.2f%%, conf %.1f%%)\n",
			label(r.Antecedent), label(r.Consequent), r.Support*100, r.Confidence*100)
	}
	return b.String()
}
