package model

import (
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// BadStateSnapshot is stateModel's snapshot with a border 2-itemset holding
// item 4 of a 4-item universe: CRC-valid, every section a server reads
// sound, the state not. serving_test.go loads it through serve.
func BadStateSnapshot() []byte {
	m := stateModel()
	st := uv(nil, m.State.LogSeg, uint64(m.State.LogByte), uint64(m.State.LogTxns))
	st = wire.AppendCountsAuto(st, m.State.ItemCounts)
	st = appendLevels(st, [][]itemset.Counted{{{Items: []item.Item{1, 4}, Count: 1}}})
	return snapshotOf(
		sec{secMeta, appendMeta(nil, m.Meta)},
		sec{secTaxonomy, appendTaxonomy(nil, m.Taxonomy)},
		sec{secItemsets, appendLevels(nil, m.Large)},
		sec{secRules, appendRules(nil, m.Rules)},
		sec{secState, st},
	)
}
