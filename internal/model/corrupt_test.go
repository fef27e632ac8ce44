package model

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// sec is one raw section of a hand-built snapshot.
type sec struct {
	id      uint64
	payload []byte
}

// snapshotOf frames raw sections as a snapshot with a correct header, so a
// test can hand the section decoders bytes no writer would produce.
func snapshotOf(secs ...sec) []byte {
	var body []byte
	for _, s := range secs {
		body = wire.AppendUvarint(body, s.id)
		body = wire.AppendUvarint(body, uint64(len(s.payload)))
		body = append(body, s.payload...)
	}
	return frameBody(body)
}

// frameBody puts a correct header in front of an arbitrary body.
func frameBody(body []byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint64(out, Checksum(body))
	return append(out, body...)
}

func uv(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = wire.AppendUvarint(dst, v)
	}
	return dst
}

// stateModel is a small valid model carrying an incremental-mining state.
func stateModel() *Model {
	tax := taxonomy.MustNew([]item.Item{item.None, 0, 0, item.None})
	return &Model{
		Meta:     Meta{Dataset: "d", Algorithm: "Cumulate-FUP", Tool: "t", NumTxns: 10, MinSupport: 0.1, MinConfidence: 0.5, CreatedUnix: 99},
		Taxonomy: tax,
		Large:    [][]itemset.Counted{{{Items: []item.Item{1}, Count: 4}}, {{Items: []item.Item{1, 3}, Count: 2}}},
		State: &MiningState{
			LogSeg: 1, LogByte: 21, LogTxns: 10,
			ItemCounts: []int64{5, 4, 0, 3},
			Levels:     [][]itemset.Counted{{{Items: []item.Item{1, 3}, Count: 2}, {Items: []item.Item{2, 3}, Count: 0}}},
			Bounds:     [][]itemset.Counted{{{Items: []item.Item{0, 3}, Count: 1}}},
		},
	}
}

// TestReaderRejectsOutOfRangeValues: every uvarint a section decoder narrows
// goes through the cursor. Each case carried a correct checksum and used to
// load: a database size or log offset wrapped negative, a parent id wrapped
// into a different, valid item.
func TestReaderRejectsOutOfRangeValues(t *testing.T) {
	const big = 1<<63 + 5
	m := stateModel()
	meta := func(numTxns, created uint64) []byte {
		b := wire.AppendStr(wire.AppendStr(wire.AppendStr(nil, "d"), "a"), "t")
		b = uv(b, numTxns)
		b = wire.AppendF64(wire.AppendF64(b, 0.1), 0.5)
		return uv(b, created)
	}
	goodMeta := sec{secMeta, meta(10, 99)}
	goodTax := sec{secTaxonomy, appendTaxonomy(nil, m.Taxonomy)}
	goodSets := sec{secItemsets, appendLevels(nil, m.Large)}
	goodRules := sec{secRules, appendRules(nil, nil)}
	state := func(logByte, logTxns uint64) sec {
		b := uv(nil, 1, logByte, logTxns)
		b = wire.AppendCountsAuto(b, m.State.ItemCounts)
		return sec{secState, appendLevels(b, m.State.Levels)}
	}
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"control", snapshotOf(goodMeta, goodTax, goodSets, goodRules, state(21, 10)), true},
		{"NumTxns wraps negative", snapshotOf(sec{secMeta, meta(big, 99)}, goodTax, goodSets, goodRules), false},
		{"CreatedUnix wraps negative", snapshotOf(sec{secMeta, meta(10, big)}, goodTax, goodSets, goodRules), false},
		// Parent+1 = 1<<32+1 narrows to parent 0: a valid forest, a wrong one.
		{"parent wraps into another item", snapshotOf(goodMeta, sec{secTaxonomy, uv(nil, 4, 0, 1<<32+1, 1, 0)}, goodSets, goodRules), false},
		{"LogByte wraps negative", snapshotOf(goodMeta, goodTax, goodSets, goodRules, state(big, 10)), false},
		{"LogTxns wraps negative", snapshotOf(goodMeta, goodTax, goodSets, goodRules, state(21, big)), false},
		{"itemset count wraps negative", snapshotOf(goodMeta, goodTax, sec{secItemsets, append(uv(nil, 1, 1), append(wire.AppendItems(nil, []item.Item{1}), uv(nil, big)...)...)}, goodRules), false},
		{"rule count wraps negative", snapshotOf(goodMeta, goodTax, goodSets, sec{secRules, wire.AppendF64(wire.AppendF64(uv(wire.AppendItems(wire.AppendItems(uv(nil, 1), []item.Item{1}), []item.Item{3}), big), 0.2), 0.5)}), false},
		{"section length past the body", frameBody(uv(nil, secMeta, 200)), false},
		{"section table ends mid-varint", frameBody([]byte{secMeta, 0x80}), false},
	} {
		r, err := NewReader(c.data)
		if err == nil {
			_, err = r.Model()
		}
		if err == nil {
			// Model re-validates; State alone must refuse too.
			_, err = r.State()
		}
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// State alone refuses what a follower must not resume from, not only
	// Model through Validate: a wrapped offset, an item count vector longer
	// than the taxonomy's universe — three bytes of sparse encoding that
	// declare 2^40 entries — and border levels that decode cleanly but hold a
	// set of the wrong length, an item outside the universe, or sets out of
	// order (a repeat among them).
	longCounts := sec{secState, appendLevels(append(uv(nil, 1, 21, 10), append([]byte{1}, uv(nil, 1<<40, 0)...)...), nil)}
	levels := func(sets ...[]item.Item) sec {
		b := uv(nil, 1, 21, 10)
		b = wire.AppendCountsAuto(b, m.State.ItemCounts)
		level := make([]itemset.Counted, len(sets))
		for i, s := range sets {
			level[i] = itemset.Counted{Items: s, Count: 1}
		}
		return sec{secState, appendLevels(b, [][]itemset.Counted{level})}
	}
	if r, err := NewReader(snapshotOf(goodMeta, goodTax, levels([]item.Item{1, 3}, []item.Item{2, 3}))); err != nil {
		t.Fatal(err)
	} else if s, err := r.State(); err != nil {
		t.Fatalf("State refused an ordered border level: %v", err)
	} else if s.Bounds != nil {
		// No bounds section: the state resumes with no bounds at all.
		t.Fatalf("a snapshot without a bounds section loaded bounds %v", s.Bounds)
	}
	// bounds is the good state section with a bounds section beside it,
	// holding one level of 2-itemset bounds.
	bounds := func(count int64, sets ...[]item.Item) []sec {
		level := make([]itemset.Counted, len(sets))
		for i, s := range sets {
			level[i] = itemset.Counted{Items: s, Count: count}
		}
		return []sec{state(21, 10), {secBounds, appendLevels(nil, [][]itemset.Counted{level})}}
	}
	if r, err := NewReader(snapshotOf(append([]sec{goodMeta, goodTax}, bounds(1, []item.Item{0, 3}, []item.Item{1, 2})...)...)); err != nil {
		t.Fatal(err)
	} else if s, err := r.State(); err != nil || len(s.Bounds) != 1 || len(s.Bounds[0]) != 2 {
		t.Fatalf("State refused or dropped an ordered bound level: %+v, %v", s, err)
	}
	for name, st := range map[string][]sec{
		"a wrapped log offset":           {state(big, 10)},
		"an oversized item count vector": {longCounts},
		"a 3-itemset at level 2":         {levels([]item.Item{1, 3}, []item.Item{1, 2, 3})},
		"an item outside the universe":   {levels([]item.Item{1, 3}, []item.Item{2, 4})},
		"an unordered level":             {levels([]item.Item{2, 3}, []item.Item{1, 3})},
		"a repeated set":                 {levels([]item.Item{1, 3}, []item.Item{1, 3})},
		"an unordered bound level":       bounds(1, []item.Item{1, 2}, []item.Item{0, 3}),
		"a set in both levels":           bounds(1, []item.Item{0, 3}, []item.Item{1, 3}),
		"a negative bound":               bounds(-1, []item.Item{0, 3}),
		"a 3-itemset at bound level 2":   bounds(1, []item.Item{0, 1, 3}),
	} {
		r, err := NewReader(snapshotOf(append([]sec{goodMeta, goodTax}, st...)...))
		if err != nil {
			t.Fatal(err)
		}
		if s, err := r.State(); err == nil {
			t.Errorf("State accepted %s: %+v", name, s)
		}
	}
	// A bound that decodes (Validate sees the in-memory value) is refused too.
	neg := stateModel()
	neg.State.Bounds[0][0].Count = -1
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted a negative bound")
	}
}

// FuzzModelReader feeds arbitrary bytes to the snapshot reader as a serving
// process and a follower would meet them: open, decode what serving reads,
// read the state, decode every section. It must not panic; what Model
// accepts Serving accepts too, sharing a live taxonomy with the same
// parents; and a snapshot it accepts re-encodes to a snapshot that decodes
// to the same model (compared through the deterministic encoder, so NaN
// ratios and non-minimal varints do not matter).
func FuzzModelReader(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b, err := Encode(randomModel(rand.New(rand.NewSource(seed))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	withState, err := Encode(stateModel()) // bounds section included
	if err != nil {
		f.Fatal(err)
	}
	noBounds := stateModel()
	noBounds.State.Bounds = nil
	withoutBounds, err := Encode(noBounds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withState)
	f.Add(withState[:len(withState)-7])
	f.Add(withoutBounds)
	f.Add(snapshotOf(sec{secMeta, nil}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		_, servingErr := r.Serving(nil)
		if _, err := r.State(); err != nil {
			return
		}
		m, err := r.Model()
		if err != nil {
			return
		}
		if servingErr != nil {
			t.Fatalf("Model accepted a snapshot Serving refused: %v", servingErr)
		}
		if again, err := NewReader(data); err != nil {
			t.Fatal(err)
		} else if sv, err := again.Serving(m.Taxonomy); err != nil || sv.Taxonomy != m.Taxonomy {
			t.Fatalf("Serving over the snapshot's own taxonomy rebuilt it or failed (err %v)", err)
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		r2, err := NewReader(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not open: %v", err)
		}
		m2, err := r2.Model()
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if enc2, err := Encode(m2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoded snapshot decodes to a different model (err %v)", err)
		}
	})
}
