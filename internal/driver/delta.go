package driver

import (
	"pgarm/internal/cumulate"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// CountOptions configures one CountTable scan.
type CountOptions struct {
	// Workers is the scan worker count (<= 1 scans inline).
	Workers int
	// Lo/Hi restrict counting to the candidate id range [Lo, Hi) — NPGM's
	// memory fragments. Hi <= 0 means the whole index.
	Lo, Hi int32
	// Obs carries the per-shard observability hooks; the zero value
	// disables them.
	Obs ShardObs
	// Stats, when non-nil, is the pass window the scan's counters are merged
	// into in worker order — TxnsScanned, Probes, Increments and block
	// counters, exactly as the batch engines record them: Probes is the
	// paper's count of k-subsets offered to the candidate table, C(|t'|, k)
	// per extended transaction, whatever the index does to answer them.
	Stats *metrics.NodeStats
	// WStats is the older spelling of Stats that bench/ compiles against:
	// without Stats, the scan's totals are added to WStats[0] when present.
	WStats []metrics.NodeStats
}

// CountTable counts support for the candidates behind index over one
// transaction source: each transaction is extended with its kept ancestors
// (view), filtered to candidate members (member), and every indexed
// k-itemset it contains increments wcounts (Index.CountContained). It is the
// count-support scan shared by the batch NPGM pass and the incremental
// miner's delta and prefix scans, so both count bit-identically by
// construction.
//
// wcounts must have opt.Workers (min 1) vectors of length index.Len();
// callers fold them with MergeWorkerVectors. src must support concurrent
// independent Scan calls when opt.Workers > 1 (every txn.Scanner in the
// repo does).
func CountTable(view *taxonomy.View, member []bool, index *itemset.Index, k int, src txn.Scanner, wcounts [][]int64, opt CountOptions) error {
	lo, hi := opt.Lo, opt.Hi
	if hi <= 0 {
		hi = int32(index.Len())
	}
	st := opt.Stats
	if st == nil && len(opt.WStats) > 0 {
		st = &opt.WStats[0]
	}
	wstamps := make([]itemset.Stamps, max(opt.Workers, 1))
	return CountPhase(src, opt.Workers, opt.Obs, st, cumulate.FilteredExtension(view, member), nil,
		func(w *Worker, _ txn.Transaction) error {
			w.Stats.Probes += itemset.Choose(len(w.Ext), k)
			w.Stats.Increments += index.CountContained(w.Ext, lo, hi, wcounts[w.ID], &wstamps[w.ID])
			return nil
		})
}
