package model

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// randomModel builds a structurally valid model from a seeded RNG: a random
// forest taxonomy, large itemsets drawn from its universe (canonical, level
// = size), and rules over those itemsets.
func randomModel(rng *rand.Rand) *Model {
	n := 8 + rng.Intn(40)
	parent := make([]item.Item, n)
	for i := range parent {
		// Items only ever point at earlier items, so the forest is acyclic
		// by construction; ~1/4 of items are roots.
		if i == 0 || rng.Intn(4) == 0 {
			parent[i] = item.None
		} else {
			parent[i] = item.Item(rng.Intn(i))
		}
	}
	tax := taxonomy.MustNew(parent)

	maxK := 1 + rng.Intn(3)
	large := make([][]itemset.Counted, maxK)
	for k := 1; k <= maxK; k++ {
		cnt := rng.Intn(6)
		seen := map[string]bool{}
		for c := 0; c < cnt; c++ {
			items := make([]item.Item, 0, k)
			for len(items) < k {
				items = append(items, item.Item(rng.Intn(n)))
				items = item.Dedup(items)
			}
			key := itemset.Key(items)
			if seen[key] {
				continue
			}
			seen[key] = true
			large[k-1] = append(large[k-1], itemset.Counted{Items: items, Count: rng.Int63n(1 << 32)})
		}
		itemset.SortCounted(large[k-1])
	}

	var rs []rules.Rule
	for _, c := range large[maxK-1] {
		if len(c.Items) < 2 {
			continue
		}
		ante := c.Items[:1]
		cons := c.Items[1:]
		rs = append(rs, rules.Rule{
			Antecedent: item.Clone(ante),
			Consequent: item.Clone(cons),
			Support:    rng.Float64(),
			Confidence: rng.Float64(),
			Count:      c.Count,
		})
	}

	return &Model{
		Meta: Meta{
			Dataset:       "R30F5@quick",
			Algorithm:     "H-HPGM-FGD",
			Tool:          ToolVersion,
			NumTxns:       rng.Int63n(1 << 40),
			MinSupport:    rng.Float64(),
			MinConfidence: rng.Float64(),
			CreatedUnix:   rng.Int63n(1 << 35),
		},
		Taxonomy: tax,
		Large:    large,
		Rules:    rs,
	}
}

// equalModels compares everything Write persists.
func equalModels(t *testing.T, want, got *Model) {
	t.Helper()
	if want.Meta != got.Meta {
		t.Fatalf("meta round-trip: want %+v, got %+v", want.Meta, got.Meta)
	}
	if want.Taxonomy.NumItems() != got.Taxonomy.NumItems() {
		t.Fatalf("taxonomy size: want %d, got %d", want.Taxonomy.NumItems(), got.Taxonomy.NumItems())
	}
	for i := 0; i < want.Taxonomy.NumItems(); i++ {
		if want.Taxonomy.Parent(item.Item(i)) != got.Taxonomy.Parent(item.Item(i)) {
			t.Fatalf("parent of %d: want %v, got %v", i, want.Taxonomy.Parent(item.Item(i)), got.Taxonomy.Parent(item.Item(i)))
		}
	}
	if len(want.Large) != len(got.Large) {
		t.Fatalf("levels: want %d, got %d", len(want.Large), len(got.Large))
	}
	for k := range want.Large {
		if len(want.Large[k]) != len(got.Large[k]) {
			t.Fatalf("level %d: want %d itemsets, got %d", k+1, len(want.Large[k]), len(got.Large[k]))
		}
		for i := range want.Large[k] {
			w, g := want.Large[k][i], got.Large[k][i]
			if !item.Equal(w.Items, g.Items) || w.Count != g.Count {
				t.Fatalf("level %d itemset %d: want %v/%d, got %v/%d", k+1, i, w.Items, w.Count, g.Items, g.Count)
			}
		}
	}
	if len(want.Rules) != len(got.Rules) {
		t.Fatalf("rules: want %d, got %d", len(want.Rules), len(got.Rules))
	}
	for i := range want.Rules {
		if !reflect.DeepEqual(want.Rules[i], got.Rules[i]) {
			t.Fatalf("rule %d round-trip: want %+v, got %+v", i, want.Rules[i], got.Rules[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	prop := func(seed int64) bool {
		m := randomModel(rand.New(rand.NewSource(seed)))
		b, err := Encode(m)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		r, err := NewReader(b)
		if err != nil {
			t.Logf("seed %d: open: %v", seed, err)
			return false
		}
		got, err := r.Model()
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		equalModels(t, m, got)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyReaderDecodesOnDemand(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(7)))
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.meta != m.Meta {
		t.Fatalf("meta: want %+v, got %+v", m.Meta, r.meta)
	}
	// Rules decode without touching taxonomy/itemsets.
	rs, err := r.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(m.Rules) {
		t.Fatalf("rules: want %d, got %d", len(m.Rules), len(rs))
	}
	if r.taxDone || r.largeDone {
		t.Fatal("Rules() decoded unrelated sections")
	}
	if r.Checksum() == 0 {
		t.Fatal("checksum not surfaced")
	}
	got, err := r.Model()
	if err != nil {
		t.Fatal(err)
	}
	equalModels(t, m, got)
}

// TestTruncatedFails cuts the snapshot at every length shorter than the
// whole and requires a loud error — never a partial model.
func TestTruncatedFails(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(42)))
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 7, 8, 12, headerLen - 1, headerLen, headerLen + 1, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := NewReader(data[:cut]); err == nil {
			t.Errorf("NewReader accepted snapshot truncated to %d of %d bytes", cut, len(data))
		}
	}
}

// TestCorruptionFails flips one byte at a time across the file and requires
// either a reader error or (for bytes inside ignorable slack, of which this
// format has none) an identical model — silent corruption is the only
// failure mode.
func TestCorruptionFails(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(13)))
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		r, err := NewReader(mut)
		if err != nil {
			continue
		}
		if _, err := r.Model(); err == nil {
			t.Fatalf("byte %d corrupted silently (no reader error)", i)
		}
	}
}

func TestWriteFileAtomicAndReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.pgarm")
	m := randomModel(rand.New(rand.NewSource(3)))
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	// No temp leftovers.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected only the snapshot in %s, found %d entries", dir, len(ents))
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalModels(t, m, got)

	if _, err := ReadFile(filepath.Join(dir, "missing.pgarm")); err == nil {
		t.Fatal("ReadFile of missing path succeeded")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	tax := taxonomy.MustNew([]item.Item{item.None, 0, 0})
	cases := []*Model{
		{Taxonomy: nil},
		{Taxonomy: tax, Large: [][]itemset.Counted{{{Items: []item.Item{5}, Count: 1}}}},               // out of range
		{Taxonomy: tax, Large: [][]itemset.Counted{{{Items: []item.Item{1, 0}, Count: 1}}}},            // not canonical
		{Taxonomy: tax, Large: [][]itemset.Counted{{{Items: []item.Item{0, 1}, Count: 1}}}},            // 2-itemset at level 1
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{0}, Consequent: nil}}},            // empty consequent
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{9}, Consequent: []item.Item{1}}}}, // out of range
		// Measures that would leave the serving rank order partial.
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Confidence: math.NaN()}}},
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Confidence: math.Inf(1)}}},
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Confidence: math.Inf(-1)}}},
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Support: math.NaN()}}},
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Support: math.Inf(-1)}}},
		{Taxonomy: tax, Rules: []rules.Rule{{Antecedent: []item.Item{1}, Consequent: []item.Item{2}, Count: -1}}},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted malformed model", i)
		}
	}
}

// withState gives m an incremental-mining state drawn from rng: one count
// per item, and for each k in 2..4 a border and a bound level of distinct
// k-itemsets, each strictly ascending, no set in both.
func withState(rng *rand.Rand, m *Model) *Model {
	n := m.Taxonomy.NumItems()
	s := &MiningState{LogSeg: rng.Uint64() >> 1, LogByte: rng.Int63(), LogTxns: rng.Int63()}
	s.ItemCounts = make([]int64, n)
	for i := range s.ItemCounts {
		if rng.Intn(3) > 0 {
			s.ItemCounts[i] = rng.Int63n(1 << (1 + rng.Intn(40)))
		}
	}
	for k := 2; k <= 4; k++ {
		seen := map[string]bool{}
		var border, bounds []itemset.Counted
		for c := rng.Intn(12); c > 0; c-- {
			items := make([]item.Item, 0, k)
			for len(items) < k {
				items = item.Dedup(append(items, item.Item(rng.Intn(n))))
			}
			if key := itemset.Key(items); !seen[key] {
				seen[key] = true
				c := itemset.Counted{Items: items, Count: rng.Int63n(1 << 20)}
				if rng.Intn(2) == 0 {
					border = append(border, c)
				} else {
					bounds = append(bounds, c)
				}
			}
		}
		itemset.SortCounted(border)
		itemset.SortCounted(bounds)
		s.Levels = append(s.Levels, border)
		s.Bounds = append(s.Bounds, bounds)
	}
	m.State = s
	return m
}

// refEncode is the snapshot encoder as first written: every section payload
// in its own buffer, itemset levels through wire.AppendCounted's parallel
// sets and counts, the body framed behind the header afterwards.
func refEncode(m *Model) []byte {
	levels := func(dst []byte, ls [][]itemset.Counted) []byte {
		dst = wire.AppendUvarint(dst, uint64(len(ls)))
		for _, level := range ls {
			sets := make([][]item.Item, len(level))
			counts := make([]int64, len(level))
			for i, c := range level {
				sets[i], counts[i] = c.Items, c.Count
			}
			dst = wire.AppendCounted(dst, sets, counts)
		}
		return dst
	}
	secs := []sec{
		{secMeta, appendMeta(nil, m.Meta)},
		{secTaxonomy, appendTaxonomy(nil, m.Taxonomy)},
		{secItemsets, levels(nil, m.Large)},
		{secRules, appendRules(nil, m.Rules)},
	}
	if s := m.State; s != nil {
		st := uv(nil, s.LogSeg, uint64(s.LogByte), uint64(s.LogTxns))
		st = wire.AppendCountsAuto(st, s.ItemCounts)
		secs = append(secs, sec{secState, levels(st, s.Levels)})
		if len(s.Bounds) > 0 {
			secs = append(secs, sec{secBounds, levels(nil, s.Bounds)})
		}
	}
	return snapshotOf(secs...)
}

// TestEncodeMatchesReference: Encode writes, byte for byte, the snapshot
// the section-by-section reference encoder writes, with and without a state,
// and the result reads back whole.
func TestEncodeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		if seed%2 == 0 {
			withState(rng, m)
		}
		got, err := Encode(m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := refEncode(m); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Encode wrote %d bytes differing from the reference's %d", seed, len(got), len(want))
		}
		r, err := NewReader(got)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := r.Model()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equalModels(t, m, back)
		if again, err := Encode(back); err != nil || !bytes.Equal(again, got) || (back.State == nil) != (m.State == nil) {
			t.Fatalf("seed %d: the snapshot read back encodes differently (err %v)", seed, err)
		}
	}
}

// TestServingDecodesServedSectionsOnly: Serving returns meta, taxonomy and
// rules, validated, and leaves the itemset levels and the state undecoded.
// Given the live taxonomy it returns that pointer when the parent vector is
// the snapshot's, and a rebuilt taxonomy when one parent differs.
func TestServingDecodesServedSectionsOnly(t *testing.T) {
	m := withState(rand.New(rand.NewSource(11)), randomModel(rand.New(rand.NewSource(11))))
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Serving(m.Taxonomy)
	if err != nil {
		t.Fatal(err)
	}
	if r.largeDone || r.stateDone || got.Large != nil || got.State != nil {
		t.Fatal("Serving decoded the itemset levels or the state")
	}
	if got.Taxonomy != m.Taxonomy {
		t.Fatal("Serving rebuilt a taxonomy identical to the live one")
	}
	served := *m
	served.Large, served.State = nil, nil
	equalModels(t, &served, got)

	// One parent moved: Serving must build the snapshot's hierarchy.
	n := m.Taxonomy.NumItems()
	parent := make([]item.Item, n)
	for i := range parent {
		parent[i] = m.Taxonomy.Parent(item.Item(i))
	}
	parent[n-1] = item.None
	if parent[n-1] == m.Taxonomy.Parent(item.Item(n-1)) {
		parent[n-1] = 0
	}
	other := taxonomy.MustNew(parent)
	for _, live := range []*taxonomy.Taxonomy{other, taxonomy.MustNew(parent[:n-1]), nil} {
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Serving(live)
		if err != nil {
			t.Fatal(err)
		}
		if got.Taxonomy == live {
			t.Fatalf("Serving kept a live taxonomy of %d items whose parents differ", live.NumItems())
		}
		equalModels(t, &served, got)
	}
}

// encodeSink keeps BenchmarkEncode's result alive.
var encodeSink []byte

// BenchmarkEncode: one snapshot of a stream-shaped model per op — a 30,000-
// item taxonomy, itemset levels, rules, and a FUP state with bounds. It
// fences Encode's allocations: the snapshot buffer and one section scratch,
// each grown by doubling.
func BenchmarkEncode(b *testing.B) {
	tax, err := taxonomy.Balanced(30000, 30, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m := &Model{Meta: Meta{Dataset: "bench", Algorithm: "Cumulate-FUP"}, Taxonomy: tax}
	sets := func(k, count int) []itemset.Counted {
		seen := map[string]bool{}
		var out []itemset.Counted
		for len(out) < count {
			items := make([]item.Item, 0, k)
			for len(items) < k {
				items = item.Dedup(append(items, item.Item(rng.Intn(tax.NumItems()))))
			}
			if key := itemset.Key(items); !seen[key] {
				seen[key] = true
				out = append(out, itemset.Counted{Items: items, Count: rng.Int63n(1 << 16)})
			}
		}
		itemset.SortCounted(out)
		return out
	}
	m.Large = [][]itemset.Counted{sets(1, 400), sets(2, 600), sets(3, 200)}
	for _, c := range m.Large[1] {
		m.Rules = append(m.Rules, rules.Rule{Antecedent: c.Items[:1], Consequent: c.Items[1:], Count: c.Count, Support: 0.1, Confidence: 0.7})
	}
	m.State = &MiningState{LogTxns: 1 << 16, ItemCounts: make([]int64, tax.NumItems())}
	for i := range m.State.ItemCounts {
		m.State.ItemCounts[i] = rng.Int63n(1 << 12)
	}
	border3 := sets(3, 3000)
	m.State.Levels = [][]itemset.Counted{sets(2, 12000), border3}
	m.State.Bounds = [][]itemset.Counted{nil, subtract(sets(3, 6000), border3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if encodeSink, err = Encode(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(encodeSink)), "snapshot-B")
}

// subtract returns the sets of level (ascending) not in drop (ascending).
func subtract(level, drop []itemset.Counted) []itemset.Counted {
	var out []itemset.Counted
	j := 0
	for _, c := range level {
		for j < len(drop) && item.Compare(drop[j].Items, c.Items) < 0 {
			j++
		}
		if j < len(drop) && item.Compare(drop[j].Items, c.Items) == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}
