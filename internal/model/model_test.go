package model

import (
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
