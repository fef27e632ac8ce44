package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"pgarm/internal/core"
	"pgarm/internal/cumulate"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/model"
	"pgarm/internal/rules"
	"pgarm/internal/stream"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// The SA95 example hierarchy:
//
//	clothes(0)            footwear(1)
//	├── outerwear(2)      ├── shoes(4)
//	│   ├── jackets(5)    └── hiking boots(7)
//	│   └── ski pants(6)
//	└── shirts(3)
const (
	clothes   = item.Item(0)
	footwear  = item.Item(1)
	outerwear = item.Item(2)
	shirts    = item.Item(3)
	shoes     = item.Item(4)
	jackets   = item.Item(5)
	skiPants  = item.Item(6)
	boots     = item.Item(7)
)

func testTax() *taxonomy.Taxonomy {
	return taxonomy.MustNew([]item.Item{item.None, item.None, 0, 0, 1, 2, 2, 1})
}

// rule builds a canonical test rule.
func rule(ante, cons []item.Item, conf, sup float64, count int64) rules.Rule {
	item.Sort(ante)
	item.Sort(cons)
	return rules.Rule{Antecedent: ante, Consequent: cons, Confidence: conf, Support: sup, Count: count}
}

func testIndex(t *testing.T, rs ...rules.Rule) *Index {
	t.Helper()
	m := &model.Model{
		Meta:     model.Meta{Dataset: "test", Algorithm: "Cumulate", NumTxns: 100},
		Taxonomy: testTax(),
		Rules:    rs,
	}
	ix, err := NewIndex(m, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestRecommendMatchesViaAncestors(t *testing.T) {
	// Antecedent is the interior category outerwear; the basket holds only
	// the leaf jackets. The ancestor closure must bridge them.
	ix := testIndex(t,
		rule([]item.Item{outerwear}, []item.Item{boots}, 0.8, 0.1, 10),
		rule([]item.Item{shirts}, []item.Item{shoes}, 0.9, 0.1, 12),
	)
	recs := ix.Recommend(ix.Normalize([]item.Item{jackets}), 5)
	if len(recs) != 1 {
		t.Fatalf("want 1 recommendation, got %v", recs)
	}
	if !item.Equal(recs[0].Items, []item.Item{boots}) {
		t.Fatalf("want boots, got %v", recs[0].Items)
	}

	// The closure is upward only: a basket holding the *category* outerwear
	// must not match a leaf antecedent.
	ix2 := testIndex(t, rule([]item.Item{jackets}, []item.Item{boots}, 0.8, 0.1, 10))
	if recs := ix2.Recommend(ix2.Normalize([]item.Item{outerwear}), 5); len(recs) != 0 {
		t.Fatalf("category basket matched leaf antecedent: %v", recs)
	}
}

func TestRecommendMultiItemAntecedent(t *testing.T) {
	// Antecedent {outerwear, shoes} needs both sides satisfied, across two
	// trees, both via ancestors.
	ix := testIndex(t,
		rule([]item.Item{outerwear, shoes}, []item.Item{shirts}, 0.7, 0.05, 7),
	)
	if recs := ix.Recommend(ix.Normalize([]item.Item{skiPants, shoes}), 3); len(recs) != 1 {
		t.Fatalf("want 1 recommendation, got %v", recs)
	}
	// Half-satisfied antecedent must not fire.
	if recs := ix.Recommend(ix.Normalize([]item.Item{skiPants}), 3); len(recs) != 0 {
		t.Fatalf("half-satisfied antecedent fired: %v", recs)
	}
}

func TestRecommendAncestorDedup(t *testing.T) {
	// Best rule recommends the leaf boots; the next two recommend footwear
	// (its ancestor) and boots again — both must be suppressed, letting the
	// unrelated shirts rule through.
	ix := testIndex(t,
		rule([]item.Item{jackets}, []item.Item{boots}, 0.9, 0.2, 20),
		rule([]item.Item{outerwear}, []item.Item{footwear}, 0.8, 0.3, 30),
		rule([]item.Item{clothes}, []item.Item{boots}, 0.7, 0.3, 30),
		rule([]item.Item{clothes}, []item.Item{shirts}, 0.6, 0.4, 40),
	)
	recs := ix.Recommend(ix.Normalize([]item.Item{jackets}), 10)
	if len(recs) != 2 {
		t.Fatalf("want 2 recommendations after ancestor dedup, got %v", recs)
	}
	if !item.Equal(recs[0].Items, []item.Item{boots}) || !item.Equal(recs[1].Items, []item.Item{shirts}) {
		t.Fatalf("want [boots shirts], got %v", recs)
	}
}

func TestRecommendSkipsConsequentsAlreadyInBasket(t *testing.T) {
	// The consequent outerwear is an ancestor of the basket item: nothing
	// new, must not be recommended.
	ix := testIndex(t,
		rule([]item.Item{shirts}, []item.Item{outerwear}, 0.9, 0.1, 10),
	)
	if recs := ix.Recommend(ix.Normalize([]item.Item{shirts, jackets}), 5); len(recs) != 0 {
		t.Fatalf("recommended something the basket already implies: %v", recs)
	}
}

func TestRecommendRankingAndTopK(t *testing.T) {
	ix := testIndex(t,
		rule([]item.Item{shirts}, []item.Item{shoes}, 0.5, 0.1, 10),
		rule([]item.Item{shirts}, []item.Item{skiPants}, 0.9, 0.1, 10),
		rule([]item.Item{shirts}, []item.Item{jackets}, 0.7, 0.1, 10),
	)
	recs := ix.Recommend(ix.Normalize([]item.Item{shirts}), 2)
	if len(recs) != 2 {
		t.Fatalf("want k=2 recommendations, got %v", recs)
	}
	if !item.Equal(recs[0].Items, []item.Item{skiPants}) || recs[0].Confidence != 0.9 {
		t.Fatalf("rank 1 wrong: %+v", recs[0])
	}
	if !item.Equal(recs[1].Items, []item.Item{jackets}) || recs[1].Confidence != 0.7 {
		t.Fatalf("rank 2 wrong: %+v", recs[1])
	}
}

func TestNormalizeOrderDupAndRangeInsensitive(t *testing.T) {
	ix := testIndex(t, rule([]item.Item{shirts}, []item.Item{shoes}, 0.5, 0.1, 10))
	a := ix.Normalize([]item.Item{jackets, shirts, shirts, 99, -3})
	b := ix.Normalize([]item.Item{shirts, jackets})
	if !item.Equal(a, b) {
		t.Fatalf("normalization not canonical: %v vs %v", a, b)
	}
	if len(ix.Normalize([]item.Item{1000, item.None})) != 0 {
		t.Fatal("out-of-range items survived normalization")
	}
}

func TestRulesByRootBuckets(t *testing.T) {
	ix := testIndex(t,
		rule([]item.Item{jackets}, []item.Item{boots}, 0.9, 0.2, 20),         // antecedent in clothes tree
		rule([]item.Item{shoes}, []item.Item{shirts}, 0.8, 0.2, 20),          // antecedent in footwear tree
		rule([]item.Item{jackets, shoes}, []item.Item{shirts}, 0.7, 0.2, 20), // both trees
	)
	if got := ix.RulesByRoot(clothes); len(got) != 2 {
		t.Fatalf("clothes bucket: want 2 rules, got %v", got)
	}
	if got := ix.RulesByRoot(footwear); len(got) != 2 {
		t.Fatalf("footwear bucket: want 2 rules, got %v", got)
	}
	if got := ix.RulesByRoot(shirts); got != nil {
		t.Fatalf("non-root bucket should be empty, got %v", got)
	}
}

func TestNewIndexRejectsInvalidModel(t *testing.T) {
	m := &model.Model{
		Taxonomy: testTax(),
		Rules:    []rules.Rule{{Antecedent: []item.Item{55}, Consequent: []item.Item{1}}},
	}
	if _, err := NewIndex(m, "v"); err == nil {
		t.Fatal("NewIndex accepted out-of-universe rule")
	}
	if _, err := NewIndex(nil, "v"); err == nil {
		t.Fatal("NewIndex accepted nil model")
	}
}

// TestLoadFileRejectsNonFiniteRule: a snapshot whose rule carries a NaN or
// infinite measure has a correct checksum and decodes, but does not load —
// the rank order would not be total. The file is a valid snapshot with one
// measure's bytes swapped for the bad value's and the checksum redone.
func TestLoadFileRejectsNonFiniteRule(t *testing.T) {
	const sentinel = 0.123456789
	dir := t.TempDir()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, field := range []string{"confidence", "support"} {
			r := rule([]item.Item{jackets}, []item.Item{boots}, 0.8, 0.1, 10)
			if field == "confidence" {
				r.Confidence = sentinel
			} else {
				r.Support = sentinel
			}
			m := &model.Model{
				Meta:     model.Meta{Dataset: "test", NumTxns: 100},
				Taxonomy: testTax(),
				Rules:    []rules.Rule{rule([]item.Item{shirts}, []item.Item{shoes}, 0.9, 0.1, 12), r},
			}
			data, err := model.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			from, to := wire.AppendF64(nil, sentinel), wire.AppendF64(nil, bad)
			if len(from) != len(to) || bytes.Count(data, from) != 1 {
				t.Fatalf("cannot patch %v over %s", bad, field)
			}
			i := bytes.Index(data, from)
			copy(data[i:], to)
			// Header: magic [8], version [4], body length [8], CRC-64 [8].
			binary.LittleEndian.PutUint64(data[20:28], model.Checksum(data[28:]))
			path := filepath.Join(dir, fmt.Sprintf("%s-%v.pgarm", field, bad))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = LoadFile(path)
			if err == nil || !strings.Contains(err.Error(), "rule 1 ({5} => {7})") {
				t.Errorf("%s %v: LoadFile error %v, want one naming rule 1", field, bad, err)
			}
		}
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	ix := testIndex(t, rule([]item.Item{shirts}, []item.Item{shoes}, 0.5, 0.1, 10))
	if recs := ix.Recommend(nil, 5); recs != nil {
		t.Fatalf("empty basket returned %v", recs)
	}
	if recs := ix.Recommend([]item.Item{shirts}, 0); recs != nil {
		t.Fatalf("k=0 returned %v", recs)
	}
	empty := testIndex(t)
	if recs := empty.Recommend([]item.Item{shirts}, 5); recs != nil {
		t.Fatalf("rule-less index returned %v", recs)
	}
}

// refIndex is the query path Recommend replaced, kept only as the oracle it
// must agree with: rule ids bucketed by antecedent item, candidates gathered
// through a per-query map, filtered with ContainsAll and fully sorted.
type refIndex struct {
	tax    *taxonomy.Taxonomy
	rules  []rules.Rule
	byItem map[item.Item][]int32
}

func newRefIndex(m *model.Model) *refIndex {
	ix := &refIndex{tax: m.Taxonomy, rules: m.Rules, byItem: make(map[item.Item][]int32)}
	for id, r := range m.Rules {
		for _, x := range r.Antecedent {
			ix.byItem[x] = append(ix.byItem[x], int32(id))
		}
	}
	return ix
}

func (ix *refIndex) recommend(basket []item.Item, k int) []Recommendation {
	if k <= 0 || len(basket) == 0 || len(ix.rules) == 0 {
		return nil
	}
	extended := ix.tax.ExtendTransaction(make([]item.Item, 0, 4*len(basket)), basket)
	seen := make(map[int32]struct{})
	var cands []int32
	for _, x := range extended {
		for _, id := range ix.byItem[x] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			cands = append(cands, id)
		}
	}
	matched := cands[:0]
	for _, id := range cands {
		r := &ix.rules[id]
		if !item.ContainsAll(extended, r.Antecedent) {
			continue
		}
		novel := false
		for _, y := range r.Consequent {
			if !item.Contains(extended, y) {
				novel = true
				break
			}
		}
		if novel {
			matched = append(matched, id)
		}
	}
	if len(matched) == 0 {
		return nil
	}
	sort.Slice(matched, func(a, b int) bool {
		ra, rb := &ix.rules[matched[a]], &ix.rules[matched[b]]
		if ra.Confidence != rb.Confidence {
			return ra.Confidence > rb.Confidence
		}
		if ra.Count != rb.Count {
			return ra.Count > rb.Count
		}
		return matched[a] < matched[b]
	})
	out := make([]Recommendation, 0, k)
	var chosen []item.Item
	covered := func(y item.Item) bool {
		for _, c := range chosen {
			if y == c || ix.tax.IsAncestor(y, c) || ix.tax.IsAncestor(c, y) {
				return true
			}
		}
		return false
	}
	for _, id := range matched {
		r := &ix.rules[id]
		dup := false
		for _, y := range r.Consequent {
			if covered(y) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, Recommendation{
			Items:      r.Consequent,
			Confidence: r.Confidence,
			Support:    r.Support,
			Rule:       int(id),
		})
		chosen = append(chosen, r.Consequent...)
		if len(out) == k {
			break
		}
	}
	return out
}

// randomTax draws a forest of n items in which every item points at an
// earlier one (roots first), so low ids are the ancestors of many items.
func randomTax(rng *rand.Rand, n int) *taxonomy.Taxonomy {
	roots := 1 + rng.Intn(4)
	parent := make([]item.Item, n)
	for i := range parent {
		if i < roots {
			parent[i] = item.None
		} else {
			parent[i] = item.Item(rng.Intn(i))
		}
	}
	return taxonomy.MustNew(parent)
}

// randomServeModel draws a valid model over a 300-400 item forest: numRules
// rules with tied confidences and counts, items biased towards the upper
// levels so baskets match often and ancestor dedup has work, one antecedent
// longer than 255 items, and a shuffled order (rank-sorted one time in four,
// so both of NewIndex's paths are taken). It also returns the long
// antecedent.
func randomServeModel(rng *rand.Rand, numRules int) (*model.Model, []item.Item) {
	n := 300 + rng.Intn(100)
	tax := randomTax(rng, n)
	pick := func() item.Item {
		if rng.Intn(10) < 7 {
			return item.Item(rng.Intn(30))
		}
		return item.Item(rng.Intn(n))
	}
	itemsOf := func(size int) []item.Item {
		var s []item.Item
		for len(s) < size {
			s = item.Dedup(append(s, pick()))
		}
		return s
	}
	confs := []float64{0.3, 0.5, 0.5, 0.8, 1}
	measures := func() (float64, float64, int64) {
		count := int64(1 + rng.Intn(3))
		return confs[rng.Intn(len(confs))], float64(count) / 100, count
	}
	long := make([]item.Item, 256+rng.Intn(40))
	for i, x := range rng.Perm(n)[:len(long)] {
		long[i] = item.Item(x)
	}
	item.Sort(long)
	conf, sup, count := measures()
	rs := []rules.Rule{{Antecedent: long, Consequent: itemsOf(1), Confidence: conf, Support: sup, Count: count}}
	for len(rs) < numRules {
		conf, sup, count := measures()
		rs = append(rs, rules.Rule{Antecedent: itemsOf(1 + rng.Intn(3)), Consequent: itemsOf(1 + rng.Intn(2)), Confidence: conf, Support: sup, Count: count})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	if rng.Intn(4) == 0 {
		slices.SortStableFunc(rs, func(a, b rules.Rule) int { return compareRank(&a, &b) })
	}
	return &model.Model{Meta: model.Meta{Dataset: "quick", NumTxns: 100}, Taxonomy: tax, Rules: rs}, long
}

// randomBasket draws 1-12 items, sometimes with out-of-universe items and
// duplicates (Normalize must drop them), and one time in ten the long
// antecedent plus a few more.
func randomBasket(rng *rand.Rand, n int, long []item.Item) []item.Item {
	var b []item.Item
	if rng.Intn(10) == 0 {
		b = append(b, long...)
	}
	for size := 1 + rng.Intn(12); size > 0; size-- {
		if rng.Intn(2) == 0 {
			b = append(b, item.Item(rng.Intn(30)))
		} else {
			b = append(b, item.Item(rng.Intn(n)))
		}
	}
	if rng.Intn(5) == 0 {
		b = append(b, item.Item(n+rng.Intn(5)), item.Item(-1-rng.Intn(3)), b[0])
	}
	return b
}

// TestRecommendMatchesReferenceQuick: over random taxonomies, rule sets and
// baskets, Recommend answers exactly what the map-and-sort reference does.
func TestRecommendMatchesReferenceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, long := randomServeModel(rng, 2+rng.Intn(80))
		ix, err := NewIndex(m, "quick")
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := newRefIndex(m)
		for q := 0; q < 30; q++ {
			basket := ix.Normalize(randomBasket(rng, m.Taxonomy.NumItems(), long))
			k := 1 + rng.Intn(20)
			if got, want := ix.Recommend(basket, k), ref.recommend(basket, k); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, basket %v, k %d:\n got %+v\nwant %+v", seed, basket, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecommendLongAntecedent: the match counter counts past 255, so a rule
// needing 300 items fires on exactly those 300 and not on 299 of them.
func TestRecommendLongAntecedent(t *testing.T) {
	parent := make([]item.Item, 600)
	for i := range parent {
		parent[i] = item.None
	}
	ante := make([]item.Item, 300)
	for i := range ante {
		ante[i] = item.Item(i)
	}
	m := &model.Model{Taxonomy: taxonomy.MustNew(parent), Rules: []rules.Rule{
		{Antecedent: ante, Consequent: []item.Item{599}, Confidence: 0.9, Support: 0.1, Count: 10},
	}}
	ix, err := NewIndex(m, "long")
	if err != nil {
		t.Fatal(err)
	}
	if recs := ix.Recommend(ante[:299], 5); recs != nil {
		t.Fatalf("299 of 300 antecedent items fired the rule: %v", recs)
	}
	if recs := ix.Recommend(ante, 5); len(recs) != 1 || recs[0].Rule != 0 {
		t.Fatalf("the whole antecedent did not fire the rule: %v", recs)
	}
}

// TestNewIndexKeepsDeriveOrder: rules.Derive emits rank order, so an index
// over its output keeps no permutation, whatever the taxonomy and minconf.
func TestNewIndexKeepsDeriveOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tax := randomTax(rng, 10+rng.Intn(40))
		db := &txn.DB{}
		for tid := 0; tid < 20+rng.Intn(60); tid++ {
			var items []item.Item
			for size := 1 + rng.Intn(6); size > 0; size-- {
				items = append(items, item.Item(rng.Intn(tax.NumItems())))
			}
			db.Append(txn.Transaction{TID: int64(tid), Items: item.Dedup(items)})
		}
		res, err := cumulate.Mine(tax, db, cumulate.Config{MinSupport: 0.05 + 0.25*rng.Float64()})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		rs, err := rules.Derive(tax, res.All(), res.SupportIndex(), rules.Config{MinConfidence: rng.Float64(), NumTxns: db.Len()})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ix, err := NewIndex(&model.Model{Taxonomy: tax, Rules: rs}, "derive")
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if ix.byRank != nil {
			t.Logf("seed %d: %d derived rules are not in rank order", seed, len(rs))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// benchScale holds the R30F5 x 0.002 dataset and the rule models mined from
// it, built once per test binary.
var benchScale struct {
	mu     sync.Mutex
	ds     *gen.Dataset
	models map[string]*model.Model
}

// benchScaleData generates R30F5 x 0.002 on first use; the caller holds
// benchScale.mu.
func benchScaleData(tb testing.TB) *gen.Dataset {
	if benchScale.ds == nil {
		ds, err := gen.Generate(gen.R30F5().Scaled(0.002))
		if err != nil {
			tb.Fatal(err)
		}
		benchScale.ds, benchScale.models = ds, make(map[string]*model.Model)
	}
	return benchScale.ds
}

// benchScaleModel mines R30F5 x 0.002 over two nodes with the given engine
// and derives rules at the bench workloads' minconf 0.6. It also returns
// baskets: the first transactions, cut at 12 items as the load bench cuts
// them.
func benchScaleModel(tb testing.TB, engine engines.Engine, minsup float64, maxK, baskets int) (*model.Model, [][]item.Item) {
	tb.Helper()
	benchScale.mu.Lock()
	defer benchScale.mu.Unlock()
	ds := benchScaleData(tb)
	key := fmt.Sprintf("%s/%g/%d", engine, minsup, maxK)
	m := benchScale.models[key]
	if m == nil {
		var parts []txn.Scanner
		for _, p := range txn.Partition(ds.DB, 2) {
			parts = append(parts, p)
		}
		res, err := engines.Run(ds.Taxonomy, parts, engines.Spec{Algorithm: engine, MinSupport: minsup, MaxK: maxK})
		if err != nil {
			tb.Fatal(err)
		}
		rs, err := rules.Derive(ds.Taxonomy, res.All(), res.SupportIndex(), rules.Config{MinConfidence: 0.6, NumTxns: ds.DB.Len()})
		if err != nil {
			tb.Fatal(err)
		}
		m = &model.Model{Meta: model.Meta{Dataset: "R30F5@0.002", NumTxns: int64(ds.DB.Len())}, Taxonomy: ds.Taxonomy, Rules: rs}
		benchScale.models[key] = m
	}
	out := make([][]item.Item, min(baskets, ds.DB.Len()))
	for i := range out {
		b := ds.DB.At(i).Items
		out[i] = b[:min(len(b), 12)]
	}
	return m, out
}

// TestRecommendMatchesReferenceBenchScale: the batch-fpg shape at test size
// (R30F5 x 0.002, FPG, minsup 1%), 2,000 baskets, in Derive's order and
// shuffled.
func TestRecommendMatchesReferenceBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mines R30F5 x 0.002")
	}
	m, baskets := benchScaleModel(t, engines.FPG, 0.01, 0, 2000)
	shuffled := *m
	shuffled.Rules = slices.Clone(m.Rules)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Rules), func(i, j int) {
		shuffled.Rules[i], shuffled.Rules[j] = shuffled.Rules[j], shuffled.Rules[i]
	})
	for _, m := range []*model.Model{m, &shuffled} {
		ix, err := NewIndex(m, "bench")
		if err != nil {
			t.Fatal(err)
		}
		ref, matched := newRefIndex(m), 0
		for i, b := range baskets {
			basket, k := ix.Normalize(b), 1+i%20
			got, want := ix.Recommend(basket, k), ref.recommend(basket, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d rules, basket %v, k %d:\n got %+v\nwant %+v", len(m.Rules), basket, k, got, want)
			}
			if len(got) > 0 {
				matched++
			}
		}
		if matched < len(baskets)/10 {
			t.Fatalf("only %d of %d baskets matched a rule: the case tests too little", matched, len(baskets))
		}
	}
}

// TestRecommendAllocs: once the pooled scratch is warm, a query allocates
// only the slice it returns.
func TestRecommendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m, long := randomServeModel(rand.New(rand.NewSource(5)), 2000)
	ix, err := NewIndex(m, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	basket := ix.Normalize(slices.Concat(long, []item.Item{0, 1, 2, 3}))
	if len(ix.Recommend(basket, 10)) == 0 {
		t.Fatal("basket matches nothing: the measurement would skip the result")
	}
	if allocs := testing.AllocsPerRun(200, func() { ix.Recommend(basket, 10) }); allocs > 1 {
		t.Fatalf("Recommend allocates %v times per call, want <= 1", allocs)
	}
}

// TestRecommendConcurrentReload: readers query while the holder swaps
// between a small and a large index, so pooled scratch sized for one serves
// the other. Every reply must be the reference answer of the index the
// reader pinned.
func TestRecommendConcurrentReload(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	large, long := randomServeModel(rng, 3000)
	small := &model.Model{Taxonomy: large.Taxonomy, Rules: slices.Clone(large.Rules[:40])}
	var baskets [][]item.Item
	want := make(map[*Index][][]Recommendation)
	var ixs []*Index
	for _, m := range []*model.Model{small, large} {
		ix, err := NewIndex(m, fmt.Sprintf("v%d", len(m.Rules)))
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	for i := 0; i < 64; i++ {
		baskets = append(baskets, ixs[0].Normalize(randomBasket(rng, large.Taxonomy.NumItems(), long)))
	}
	for _, ix := range ixs {
		ref := newRefIndex(&model.Model{Taxonomy: ix.tax, Rules: ix.rules})
		for _, b := range baskets {
			want[ix] = append(want[ix], ref.recommend(b, 8))
		}
	}

	h := NewHolder(ixs[0])
	var readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; i < g+500; i++ {
				ix := h.Get()
				q := i % len(baskets)
				if got := ix.Recommend(baskets[q], 8); !reflect.DeepEqual(got, want[ix][q]) {
					t.Errorf("index %s, basket %v: got %+v, want %+v", ix.Version(), baskets[q], got, want[ix][q])
					return
				}
			}
		}(g)
	}
	go func() {
		readers.Wait()
		close(done)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
			h.Swap(ixs[i%2])
			runtime.Gosched()
		}
	}
}

// recommendSink keeps BenchmarkRecommend's calls from being optimized away.
var recommendSink []Recommendation

// BenchmarkRecommend: one uncached query per op over rule sets shaped like
// the batch-fgd (H-HPGM-FGD, minsup 2%, MaxK 3) and batch-fpg (FPG, minsup
// 1%) workloads, mined from R30F5 x 0.002, cycling through 2,000 baskets.
func BenchmarkRecommend(b *testing.B) {
	for _, c := range []struct {
		name   string
		engine engines.Engine
		minsup float64
		maxK   int
	}{
		{"fgd-like", core.HHPGMFGD, 0.02, 3},
		{"fpg-like", engines.FPG, 0.01, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, raw := benchScaleModel(b, c.engine, c.minsup, c.maxK, 2000)
			ix, err := NewIndex(m, "bench")
			if err != nil {
				b.Fatal(err)
			}
			baskets := make([][]item.Item, len(raw))
			for i, r := range raw {
				baskets[i] = ix.Normalize(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recommendSink = ix.Recommend(baskets[i%len(baskets)], 5)
			}
			b.ReportMetric(float64(len(m.Rules)), "rules")
		})
	}
}

// streamSnapshot writes the snapshot a streaming follower writes at its
// second checkpoint over R30F5 x 0.002 (the first three quarters, then the
// rest, at minsup 2% and minconf 0.5): rules, itemset levels, the FUP state
// and its bounds. It returns the path and the snapshot's size.
func streamSnapshot(tb testing.TB) (string, int64) {
	benchScale.mu.Lock()
	ds := benchScaleData(tb)
	benchScale.mu.Unlock()
	prefix, delta := &txn.DB{}, &txn.DB{}
	for i := 0; i < ds.DB.Len(); i++ {
		if i < ds.DB.Len()*3/4 {
			prefix.Append(ds.DB.At(i))
		} else {
			delta.Append(ds.DB.At(i))
		}
	}
	cfg := stream.MineConfig{MinSupport: 0.02}
	_, state, _, err := stream.IncrementalMine(ds.Taxonomy, nil, &txn.DB{}, prefix, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, state, _, err := stream.IncrementalMine(ds.Taxonomy, state, prefix, delta, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := rules.Derive(ds.Taxonomy, res.All(), res.SupportIndex(), rules.Config{MinConfidence: 0.5, NumTxns: res.NumTxns})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "stream.pgarm")
	if err := model.WriteFile(path, &model.Model{
		Meta:     model.Meta{Dataset: "R30F5@0.002", Algorithm: "Cumulate-FUP", NumTxns: int64(res.NumTxns)},
		Taxonomy: ds.Taxonomy,
		Large:    res.Large,
		Rules:    rs,
		State:    state,
	}); err != nil {
		tb.Fatal(err)
	}
	if len(state.Bounds) == 0 {
		tb.Fatal("the second checkpoint carried no bounds")
	}
	fi, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	return path, fi.Size()
}

// BenchmarkReload: one hot swap per op of a stream-shaped snapshot
// (streamSnapshot) into a server already serving it, as the follower's
// -reload-url triggers after every checkpoint. It fences what a swap
// decodes and allocates: meta, rules and the index, never the itemset
// levels, the state or a second copy of the unchanged taxonomy.
func BenchmarkReload(b *testing.B) {
	path, size := streamSnapshot(b)
	ix, err := LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(NewHolder(ix), nil, ServerOptions{ModelPath: path})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ReloadFile(""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot-B")
	b.ReportMetric(float64(len(ix.Rules())), "rules")
}
