// Package model persists a complete mined model — taxonomy, large itemsets
// with exact support counts, derived rules and generation metadata — as a
// versioned, self-describing binary snapshot (a ".pgarm" file). The snapshot
// is the hand-off artifact between the mining side of the repo (pgarm-mine,
// internal/core, internal/rules) and the serving side (internal/serve,
// pgarm-serve): mine once, write a snapshot, serve it for as long as the
// model stays fresh, then hot-swap in the next one.
//
// The encoding reuses the varint codecs of internal/wire, so itemset lists
// and count vectors cost the same bytes on disk as they do on the fabric. A
// fixed header carries a magic, the format version, the body length and a
// CRC-64 of the body; readers refuse truncated or corrupted files before
// decoding anything, so a served model is either complete or absent — never
// partial.
package model

import (
	"fmt"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// FormatVersion identifies the snapshot layout. Bump on any incompatible
// change; readers reject versions they do not understand.
const FormatVersion = 1

// ToolVersion labels snapshots with the producing build. It is a variable so
// release builds can stamp a git-describe string via
// `-ldflags "-X pgarm/internal/model.ToolVersion=v1.2.3-4-gabc"`.
var ToolVersion = "pgarm-dev"

// Meta is the generation metadata stored alongside the model: enough to know
// where a snapshot came from and how it was mined without re-running
// anything.
type Meta struct {
	// Dataset names the dataset configuration the model was mined from
	// (e.g. "R30F5@0.002").
	Dataset string `json:"dataset"`
	// Algorithm is the mining algorithm (e.g. "H-HPGM-FGD" or "Cumulate").
	Algorithm string `json:"algorithm"`
	// Tool is the producing build's version string (see ToolVersion).
	Tool string `json:"tool"`
	// NumTxns is the database size the support fractions refer to.
	NumTxns int64 `json:"num_txns"`
	// MinSupport and MinConfidence are the mining thresholds.
	MinSupport    float64 `json:"min_support"`
	MinConfidence float64 `json:"min_confidence"`
	// CreatedUnix is the snapshot creation time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Granules records the duplication granule map the final pass ran with
	// (e.g. "none" or "none,root3=fine" after adaptive escalation). Empty for
	// algorithms without a plan and for snapshots written by older builds.
	Granules string `json:"granules,omitempty"`
}

// Model is one complete mined model: everything a serving process needs.
type Model struct {
	Meta Meta
	// Taxonomy is the classification hierarchy the itemsets and rules are
	// expressed over.
	Taxonomy *taxonomy.Taxonomy
	// Large[k-1] holds the large k-itemsets with exact support counts,
	// lexicographically ordered — the shape core.Result and
	// cumulate.Result produce.
	Large [][]itemset.Counted
	// Rules are the derived generalized association rules, sorted by
	// descending confidence then support.
	Rules []rules.Rule
	// State, when non-nil, is the incremental-mining carry-forward (log
	// offset + border-set counts) a follower needs to resume delta passes
	// from this snapshot. Batch mines leave it nil and write no section.
	State *MiningState
}

// Validate checks internal consistency: every itemset and rule item must be
// inside the taxonomy's universe and in canonical form. Writers call it so a
// snapshot on disk is well-formed by construction.
func (m *Model) Validate() error {
	if m.Taxonomy == nil {
		return fmt.Errorf("model: nil taxonomy")
	}
	n := item.Item(m.Taxonomy.NumItems())
	checkItems := func(what string, items []item.Item) error {
		if !item.IsSorted(items) {
			return fmt.Errorf("model: %s %v not canonical", what, items)
		}
		for _, x := range items {
			if x < 0 || x >= n {
				return fmt.Errorf("model: %s item %d outside universe [0,%d)", what, x, n)
			}
		}
		return nil
	}
	for k, level := range m.Large {
		for _, c := range level {
			if len(c.Items) != k+1 {
				return fmt.Errorf("model: %d-itemset %v stored at level %d", len(c.Items), c.Items, k+1)
			}
			if err := checkItems("itemset", c.Items); err != nil {
				return err
			}
		}
	}
	for _, r := range m.Rules {
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			return fmt.Errorf("model: rule with empty side: %v", r)
		}
		if err := checkItems("rule antecedent", r.Antecedent); err != nil {
			return err
		}
		if err := checkItems("rule consequent", r.Consequent); err != nil {
			return err
		}
	}
	return m.validateState()
}

// NumItemsets returns the total large itemset count across all levels.
func (m *Model) NumItemsets() int {
	n := 0
	for _, level := range m.Large {
		n += len(level)
	}
	return n
}

// section identifiers inside the snapshot body. Unknown sections are skipped
// by readers, so additive extensions do not need a version bump.
const (
	secMeta     = 1
	secTaxonomy = 2
	secItemsets = 3
	secRules    = 4
	secState    = 5
)

// appendMeta encodes the meta section payload.
func appendMeta(dst []byte, m Meta) []byte {
	dst = wire.AppendStr(dst, m.Dataset)
	dst = wire.AppendStr(dst, m.Algorithm)
	dst = wire.AppendStr(dst, m.Tool)
	dst = wire.AppendUvarint(dst, uint64(m.NumTxns))
	dst = wire.AppendF64(dst, m.MinSupport)
	dst = wire.AppendF64(dst, m.MinConfidence)
	dst = wire.AppendUvarint(dst, uint64(m.CreatedUnix))
	// Granules is appended last: readers of older snapshots simply run out of
	// bytes before it and leave the field empty.
	return wire.AppendStr(dst, m.Granules)
}

// The section decoders below end on Err, not Done: a section may carry fields
// a newer writer appended (as Granules was), which an older reader ignores.

// readMeta decodes a meta section payload.
func readMeta(b []byte) (Meta, error) {
	d := wire.NewDec(b)
	m := Meta{
		Dataset:       d.Str(),
		Algorithm:     d.Str(),
		Tool:          d.Str(),
		NumTxns:       d.I64(),
		MinSupport:    d.F64(),
		MinConfidence: d.F64(),
		CreatedUnix:   d.I64(),
	}
	if d.More() { // absent in snapshots written before the field existed
		m.Granules = d.Str()
	}
	return m, d.Err()
}

// appendTaxonomy encodes the parent vector: item count, then parent+1 per
// item (so the item.None sentinel encodes as 0).
func appendTaxonomy(dst []byte, t *taxonomy.Taxonomy) []byte {
	n := t.NumItems()
	dst = wire.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		dst = wire.AppendUvarint(dst, uint64(t.Parent(item.Item(i))+1))
	}
	return dst
}

// readTaxonomy decodes and rebuilds the taxonomy, re-validating the forest
// structure (New rejects cycles and out-of-range parents).
func readTaxonomy(b []byte) (*taxonomy.Taxonomy, error) {
	d := wire.NewDec(b)
	parent := make([]item.Item, d.Count(1))
	for i := range parent {
		parent[i] = d.Item() - 1
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return taxonomy.New(parent)
}

// appendLevels encodes per-level counted itemsets: level count, then one
// wire.AppendCounted block per level.
func appendLevels(dst []byte, levels [][]itemset.Counted) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(levels)))
	for _, level := range levels {
		dst = itemset.AppendCounted(dst, level)
	}
	return dst
}

// readLevels reads what appendLevels wrote.
func readLevels(d *wire.Dec) [][]itemset.Counted {
	n := d.Count(1)
	levels := make([][]itemset.Counted, 0, n)
	for k := 0; k < n && d.Err() == nil; k++ {
		levels = append(levels, itemset.ParseCounted(d))
	}
	return levels
}

// readItemsets decodes the itemsets section: the large itemsets by level.
func readItemsets(b []byte) ([][]itemset.Counted, error) {
	d := wire.NewDec(b)
	return readLevels(&d), d.Err()
}

// appendRules encodes the rules section: rule count, then per rule the
// antecedent, consequent, absolute count, support and confidence.
func appendRules(dst []byte, rs []rules.Rule) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(rs)))
	for _, r := range rs {
		dst = wire.AppendItems(dst, r.Antecedent)
		dst = wire.AppendItems(dst, r.Consequent)
		dst = wire.AppendUvarint(dst, uint64(r.Count))
		dst = wire.AppendF64(dst, r.Support)
		dst = wire.AppendF64(dst, r.Confidence)
	}
	return dst
}

// readRules decodes the rules section.
func readRules(b []byte) ([]rules.Rule, error) {
	d := wire.NewDec(b)
	n := d.Count(5) // two itemsets, a count, two floats
	out := make([]rules.Rule, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, rules.Rule{
			Antecedent: d.Items(nil),
			Consequent: d.Items(nil),
			Count:      d.I64(),
			Support:    d.F64(),
			Confidence: d.F64(),
		})
	}
	return out, d.Err()
}
