package rules

import (
	"encoding/binary"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// Prune applies the R-interestingness filter of Srikant & Agrawal (VLDB'95,
// §2.2): a rule X ⇒ Y is R-interesting when its support is at least R times
// the support expected from any "close ancestor" rule X' ⇒ Y' (obtained by
// generalizing one or more items of the rule one-or-more hierarchy levels
// up), or its confidence is at least R times the expected confidence. Rules
// explainable by their ancestors carry no new information and are dropped.
//
// support maps itemset keys (itemset.Key) to absolute counts over the same
// database that produced the rules, as Levels.SupportIndex builds it. The
// support expected from an ancestor rule that generalizes item x to its
// parent p is the ancestor's support times sup(x)/sup(p); when either item
// count is missing the ancestor's support is used as it is. Rules whose
// ancestor rules were not derived are kept.
func Prune(tax *taxonomy.Taxonomy, rs []Rule, support map[string]int64, r float64) []Rule {
	if r <= 0 || len(rs) == 0 {
		return rs
	}
	p := pruner{tax: tax, rs: rs, support: support, r: r, byKey: make(map[string]int, len(rs))}
	for i, rule := range rs {
		p.key = appendRuleKey(p.key[:0], rule.Antecedent, rule.Consequent)
		p.byKey[string(p.key)] = i
	}
	var out []Rule
	for _, rule := range rs {
		if p.interesting(rule) {
			out = append(out, rule)
		}
	}
	return out
}

// appendRuleKey appends the key of the rule ante ⇒ cons to dst: the
// antecedent's length, then both sides' itemset keys.
func appendRuleKey(dst []byte, ante, cons []item.Item) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ante)))
	return itemset.AppendKey(itemset.AppendKey(dst, ante), cons)
}

// pruner holds one Prune call's lookups and the scratch they share: every
// rule and item-support lookup goes through key, every generalized side is
// built in gen.
type pruner struct {
	tax     *taxonomy.Taxonomy
	rs      []Rule
	support map[string]int64
	byKey   map[string]int // rule key -> index into rs
	r       float64
	key     []byte
	gen     []item.Item
}

// interesting checks the rule against every one-step generalization of each
// of its items; transitivity over close ancestors makes one-step checks
// sufficient, as in SA95.
func (p *pruner) interesting(rule Rule) bool {
	sides := [2][]item.Item{rule.Antecedent, rule.Consequent}
	for s, side := range sides {
		for i, x := range side {
			gen, parent, ok := p.generalize(side, i)
			if !ok {
				continue
			}
			anc := sides
			anc[s] = gen
			if item.Intersects(anc[0], anc[1]) {
				continue
			}
			if pass, decided := p.check(rule, anc[0], anc[1], x, parent); decided && !pass {
				return false
			}
		}
	}
	return true
}

// generalize returns set with set[i] replaced by its parent, canonical, in
// the gen scratch, and that parent. It reports false when set[i] has no
// parent — a root, or an item outside the taxonomy's universe, which keeps
// Prune total on malformed rules — or when the parent is already in set.
func (p *pruner) generalize(set []item.Item, i int) ([]item.Item, item.Item, bool) {
	x := set[i]
	if x < 0 || int(x) >= p.tax.NumItems() {
		return nil, item.None, false
	}
	parent := p.tax.Parent(x)
	if parent == item.None {
		return nil, item.None, false
	}
	p.gen = append(p.gen[:0], set...)
	p.gen[i] = parent
	p.gen = item.Dedup(p.gen)
	return p.gen, parent, len(p.gen) == len(set)
}

// check judges the rule against its ancestor rule ante ⇒ cons, which
// generalizes child to parent; decided is false when that rule was not
// derived (no evidence either way).
func (p *pruner) check(rule Rule, ante, cons []item.Item, child, parent item.Item) (pass, decided bool) {
	p.key = appendRuleKey(p.key[:0], ante, cons)
	i, ok := p.byKey[string(p.key)]
	if !ok {
		return false, false
	}
	anc := p.rs[i]
	expSup := anc.Support
	cs, okc := p.itemSupport(child)
	ps, okp := p.itemSupport(parent)
	if okc && okp && ps > 0 {
		expSup *= float64(cs) / float64(ps)
	}
	return rule.Support >= p.r*expSup || rule.Confidence >= p.r*anc.Confidence, true
}

// itemSupport looks up the support count of the 1-itemset {x}.
func (p *pruner) itemSupport(x item.Item) (int64, bool) {
	p.key = itemset.AppendKey(p.key[:0], []item.Item{x})
	s, ok := p.support[string(p.key)]
	return s, ok
}
