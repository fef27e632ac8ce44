// Package serve is the rule-serving side of the repo: an immutable in-memory
// index over a mined model snapshot (internal/model) that answers basket →
// top-K recommendation queries with taxonomy awareness, an atomic hot-swap
// holder so a running server can reload a fresh snapshot with zero downtime,
// a sharded LRU cache over normalized baskets, and the HTTP surface
// pgarm-serve exposes.
//
// Taxonomy awareness means two things at query time. First, a rule fires
// when the basket satisfies its antecedent *at any level of the hierarchy*:
// a basket holding leaf item "jacket" matches a rule whose antecedent is the
// interior category "outerwear", because the basket is extended with the
// ancestor closure of its items (the same transform Cumulate applies while
// mining). Second, the ranked recommendations are ancestor-deduped: once
// "jacket" is recommended, neither "outerwear" nor any other item on its
// root path can be recommended below it — a generalized rule and its
// specialization carry the same actionable signal once.
package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"pgarm/internal/item"
	"pgarm/internal/model"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
)

// Recommendation is one ranked answer to a basket query.
type Recommendation struct {
	// Items is the recommended consequent (one or more items).
	Items []item.Item `json:"items"`
	// Confidence and Support are the source rule's measures.
	Confidence float64 `json:"confidence"`
	Support    float64 `json:"support"`
	// Rule is the index of the source rule in the snapshot's rule list
	// (stable across queries against the same snapshot).
	Rule int `json:"rule"`
}

// Index is an immutable, query-ready view of one model snapshot. All methods
// are safe for unbounded concurrent use; the hot-swap holder relies on that
// immutability — an Index is never mutated after NewIndex returns.
type Index struct {
	tax   *taxonomy.Taxonomy
	rules []rules.Rule
	meta  model.Meta

	// Version identifies the snapshot (hex of the body checksum when loaded
	// from a file; free-form otherwise). It participates in cache keys.
	version string

	// Queries work in rank positions: rank p is the p-th rule in serving
	// order (compareRank, then rule id). byRank[p] is the id of the
	// rule at rank p; it is nil when m.Rules is already in rank order, as
	// every rules.Derive output is, and then rank p is rule p.
	byRank []int32
	// anteLen[p] is the antecedent length of the rule at rank p.
	anteLen []int32
	// byItem lists, per antecedent item, the ranks of the rules whose
	// antecedent holds it, ascending. Because baskets are ancestor-extended
	// before lookup, posting the *literal* antecedent items suffices to find
	// every rule the extended basket can satisfy.
	byItem map[item.Item][]int32
	// byRoot buckets rule ids by the root of each antecedent item — the
	// coarse grain used for taxonomy-scoped rule listing (GET /v1/rules
	// ?root=) and for answering "which trees does this model speak about".
	byRoot map[item.Item][]int32
}

// NewIndex builds the immutable index from a decoded model. The model must
// validate (NewIndex re-checks, so a hand-built model cannot corrupt a
// serving process), and rule order is preserved: rule ids reported in
// recommendations index m.Rules.
func NewIndex(m *model.Model, version string) (*Index, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return buildIndex(m, version), nil
}

// buildIndex is NewIndex over a model already validated.
func buildIndex(m *model.Model, version string) *Index {
	ix := &Index{
		tax:     m.Taxonomy,
		rules:   m.Rules,
		meta:    m.Meta,
		version: version,
		anteLen: make([]int32, len(m.Rules)),
		byRoot:  make(map[item.Item][]int32),
	}
	if !slices.IsSortedFunc(m.Rules, func(a, b rules.Rule) int { return compareRank(&a, &b) }) {
		ix.byRank = make([]int32, len(m.Rules))
		for p := range ix.byRank {
			ix.byRank[p] = int32(p)
		}
		slices.SortFunc(ix.byRank, func(a, b int32) int {
			if c := compareRank(&m.Rules[a], &m.Rules[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}

	// Carve every posting list out of one array, sized by a counting pass.
	listLen := make(map[item.Item]int32)
	total := 0
	for _, r := range m.Rules {
		for _, x := range r.Antecedent {
			listLen[x]++
		}
		total += len(r.Antecedent)
	}
	flat := make([]int32, total)
	ix.byItem = make(map[item.Item][]int32, len(listLen))
	off := 0
	for x, n := range listLen {
		ix.byItem[x] = flat[off : off : off+int(n)]
		off += int(n)
	}
	for p := range ix.anteLen {
		ante := m.Rules[ix.ruleID(int32(p))].Antecedent
		ix.anteLen[p] = int32(len(ante))
		for _, x := range ante {
			ix.byItem[x] = append(ix.byItem[x], int32(p))
		}
	}

	var roots []item.Item
	for id, r := range m.Rules {
		roots = roots[:0]
		for _, x := range r.Antecedent {
			roots = append(roots, m.Taxonomy.Root(x))
		}
		for _, root := range item.Dedup(roots) {
			ix.byRoot[root] = append(ix.byRoot[root], int32(id))
		}
	}
	return ix
}

// compareRank orders rules by descending confidence, then descending
// absolute support count: rules.Derive's first two sort keys, so its output
// needs no permutation. NewIndex breaks the remaining ties by rule id.
// model.Validate refuses NaN measures, which would leave the order partial.
func compareRank(a, b *rules.Rule) int {
	if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
		return c
	}
	return cmp.Compare(b.Count, a.Count)
}

// ruleID returns the id of the rule at rank p.
func (ix *Index) ruleID(p int32) int32 {
	if ix.byRank == nil {
		return p
	}
	return ix.byRank[p]
}

// Version returns the snapshot identity string.
func (ix *Index) Version() string { return ix.version }

// Meta returns the snapshot's generation metadata.
func (ix *Index) Meta() model.Meta { return ix.meta }

// Rules returns the full rule list (shared slice; do not modify).
func (ix *Index) Rules() []rules.Rule { return ix.rules }

// Taxonomy returns the hierarchy the index answers over.
func (ix *Index) Taxonomy() *taxonomy.Taxonomy { return ix.tax }

// RulesByRoot returns the ids of rules whose antecedent touches the tree
// rooted at root, in rule order. Shared slice; do not modify.
func (ix *Index) RulesByRoot(root item.Item) []int32 { return ix.byRoot[root] }

// Normalize canonicalizes a basket against this index's universe: sort,
// dedup, drop out-of-range items. The returned slice is fresh. Order and
// duplication of the input never affect query results — the cache keys on
// the normalized form.
func (ix *Index) Normalize(basket []item.Item) []item.Item {
	out := make([]item.Item, 0, len(basket))
	n := item.Item(ix.tax.NumItems())
	for _, x := range basket {
		if x >= 0 && x < n {
			out = append(out, x)
		}
	}
	return item.Dedup(out)
}

// scratch is one query's working memory, pooled across queries and indexes.
// count is all zeros between queries and at least as long as the rule count
// of any index it served.
type scratch struct {
	extended []item.Item // the ancestor-extended basket
	postings [][]int32   // the posting lists of the extended basket's items
	count    []int32     // per rank: antecedent items found in extended
	matched  []int32     // ranks whose whole antecedent was found
	chosen   []item.Item // consequent items recommended so far
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Recommend answers a basket query: the top-k rules whose antecedents are
// satisfied by the basket's items or their ancestors, in rank order
// (descending confidence, then descending support count, then rule id), with
// consequents deduped against the basket and against each other along
// ancestor paths. basket must be normalized (Normalize); k <= 0 returns nil.
//
// The work is proportional to the postings of the extended basket's items
// and the rules they match, not to the rule count: no per-request map or
// candidate list, and only the matched ranks are sorted. The one allocation
// is the result.
func (ix *Index) Recommend(basket []item.Item, k int) []Recommendation {
	if k <= 0 || len(basket) == 0 || len(ix.rules) == 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	if len(s.count) < len(ix.rules) {
		s.count = make([]int32, len(ix.rules))
	}
	// Extend the basket with the ancestor closure of its items — the mining
	// transform, applied at query time. It is canonical, and so is every
	// antecedent (model.Validate): each antecedent item found counts once, and
	// a rule matches when its count reaches its antecedent length.
	s.extended = ix.tax.ExtendTransaction(s.extended[:0], basket)
	s.postings, s.matched = s.postings[:0], s.matched[:0]
	count, anteLen := s.count[:len(ix.rules)], ix.anteLen
	for _, x := range s.extended {
		ps := ix.byItem[x]
		if len(ps) == 0 {
			continue
		}
		s.postings = append(s.postings, ps)
		for _, p := range ps {
			count[p]++
			if count[p] == anteLen[p] {
				s.matched = append(s.matched, p)
			}
		}
	}
	for _, ps := range s.postings {
		for _, p := range ps {
			count[p] = 0
		}
	}
	clear(s.postings) // a pooled scratch must not keep an old index alive
	slices.Sort(s.matched)

	// Greedy top-k selection in rank order. A rule is skipped when its
	// consequent adds nothing the (extended) basket lacks, or when any item
	// of it lies on the root path of (or below) an already selected
	// recommendation — never recommend both an item and its ancestor, and
	// never recommend the same item twice.
	var out []Recommendation
	s.chosen = s.chosen[:0]
	for i, p := range s.matched {
		id := ix.ruleID(p)
		r := &ix.rules[id]
		if !novel(s.extended, r.Consequent) || ix.covered(s.chosen, r.Consequent) {
			continue
		}
		if out == nil {
			out = make([]Recommendation, 0, min(k, len(s.matched)-i))
		}
		out = append(out, Recommendation{Items: r.Consequent, Confidence: r.Confidence, Support: r.Support, Rule: int(id)})
		s.chosen = append(s.chosen, r.Consequent...)
		if len(out) == k {
			break
		}
	}
	scratchPool.Put(s)
	return out
}

// novel reports whether some consequent item is missing from the extended
// basket.
func novel(extended, consequent []item.Item) bool {
	for _, y := range consequent {
		if !item.Contains(extended, y) {
			return true
		}
	}
	return false
}

// covered reports whether some consequent item equals, or is an ancestor or
// descendant of, an already chosen item.
func (ix *Index) covered(chosen, consequent []item.Item) bool {
	for _, y := range consequent {
		for _, c := range chosen {
			if y == c || ix.tax.IsAncestor(y, c) || ix.tax.IsAncestor(c, y) {
				return true
			}
		}
	}
	return false
}

// LoadFile reads a snapshot file and builds its index, labelling it with the
// snapshot checksum as the version id. It decodes only what serving reads —
// meta, taxonomy and rules (model.Reader.Serving) — and validates them once;
// the itemset levels, the mining state and its bounds stay undecoded, since
// model.Encode validated them on write and a follower validates the state
// when it resumes.
func LoadFile(path string) (*Index, error) { return loadFile(path, nil) }

// loadFile is LoadFile sharing live, the taxonomy being served (or nil), when
// the snapshot's hierarchy is the same.
func loadFile(path string, live *taxonomy.Taxonomy) (*Index, error) {
	r, err := model.OpenReader(path)
	if err != nil {
		return nil, err
	}
	m, err := r.Serving(live)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return buildIndex(m, fmt.Sprintf("%016x", r.Checksum())), nil
}
