package driver

import (
	"errors"

	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// CountOptions configures one CountTable scan.
type CountOptions struct {
	// Workers is the scan worker count (<= 1 scans inline).
	Workers int
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

// ErrCountVectors reports a count vector whose length is not the index's.
var ErrCountVectors = errors.New("count vector length differs from the index")

// errNoClosure reports a CountTable view built without a keep set.
var errNoClosure = errors.New("count table: view has no keep-set closure")

// CountTable counts support for the candidates behind index over one
// transaction source: each transaction is replaced by its ancestor closure
// restricted to the candidate members, through the view's Closure, and every
// indexed k-itemset it contains increments wcounts (Index.CountContained).
// It is the count-support scan shared by the batch NPGM pass and the
// incremental miner's delta and prefix scans, so both count bit-identically
// by construction.
//
// view must have been built with a keep set (taxonomy.NewView(t, nil,
// member) is enough); member is that keep set — cumulate.KeepSet of the
// indexed candidates — and is already applied by the view's closure.
//
// wcounts must have opt.Workers (min 1) vectors of length index.Len() (any
// other length is ErrCountVectors, before the scan); callers fold them with
// MergeWorkerVectors. src must support concurrent independent Scan calls
// when opt.Workers > 1 (every txn.Scanner in the repo does).
func CountTable(view *taxonomy.View, member []bool, index *itemset.Index, k int, src txn.Scanner, wcounts [][]int64, opt CountOptions) error {
	if view.Closure() == nil {
		return errNoClosure
	}
	for _, c := range wcounts {
		if len(c) != index.Len() {
			return ErrCountVectors
		}
	}
	st := opt.Stats
	if st == nil && len(opt.WStats) > 0 {
		st = &opt.WStats[0]
	}
	wstamps := make([]itemset.Stamps, max(opt.Workers, 1))
	return CountPhase(src, opt.Workers, opt.Obs, st, view.Closure(), nil,
		func(w *Worker, _ txn.Transaction) error {
			w.Stats.Probes += itemset.Choose(len(w.Ext), k)
			w.Stats.Increments += index.CountContained(w.Ext, wcounts[w.ID], &wstamps[w.ID])
			return nil
		})
}
