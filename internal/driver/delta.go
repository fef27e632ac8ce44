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
	// WStats accumulates TxnsScanned, Probes, Increments and block
	// counters per worker, exactly as the batch engines record them:
	// Probes is the paper's count of k-subsets offered to the candidate
	// table, C(|t'|, k) per extended transaction, whatever the index does
	// to answer them. It must hold at least Workers slots (min 1).
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
	W := opt.Workers
	if W < 1 {
		W = 1
	}
	lo, hi := opt.Lo, opt.Hi
	if hi <= 0 {
		hi = int32(index.Len())
	}
	wext := WorkerScratch(W, 64)
	wstamps := make([]itemset.Stamps, W)
	return ScanTxnShards(src, W, opt.Obs, opt.WStats, func(w int, t txn.Transaction) error {
		ws := &opt.WStats[w]
		ws.TxnsScanned++
		ext := cumulate.ExtendFiltered(view, member, wext[w][:0], t.Items)
		wext[w] = ext
		ws.Probes += itemset.Choose(len(ext), k)
		ws.Increments += index.CountContained(ext, lo, hi, wcounts[w], &wstamps[w])
		return nil
	})
}
