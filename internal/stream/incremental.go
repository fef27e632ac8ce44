package stream

import (
	"fmt"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/model"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// MineConfig controls one incremental checkpoint.
type MineConfig struct {
	// MinSupport is the minimum support as a fraction of the total (prefix +
	// delta) database size.
	MinSupport float64
	// MaxK bounds the itemset size; 0 means run until L_k is empty.
	MaxK int
	// Workers is the scan worker count (<= 1 runs inline).
	Workers int
}

// CheckpointStats quantifies how much work the FUP carry-forward saved: of
// all candidates the checkpoint's passes counted, only the re-counted ones
// (absent from the prior border sets) needed a scan of the frozen prefix —
// everything else was counted over the delta alone.
type CheckpointStats struct {
	// DeltaTxns/TotalTxns are the new and cumulative transaction counts.
	DeltaTxns int64 `json:"delta_txns"`
	TotalTxns int64 `json:"total_txns"`
	// Passes is the number of executed passes (including pass 1).
	Passes int `json:"passes"`
	// Candidates counts every candidate across the k >= 2 passes.
	Candidates int `json:"candidates"`
	// Recounted is how many of those candidates were new — not in the
	// prior checkpoint's border — and therefore needed a prefix rescan.
	Recounted int `json:"recounted"`
	// PrefixScans is the number of passes that scanned the prefix at all.
	PrefixScans int `json:"prefix_scans"`
}

// IncrementalMine runs one FUP-style checkpoint: it mines prefix + delta as
// if from scratch, but uses the prior checkpoint's carry-forward state to
// avoid re-reading the prefix wherever possible.
//
//   - Pass 1 never scans the prefix: the prior state's full per-item
//     ancestor-closure count vector is advanced by counting the delta only.
//   - Pass k >= 2 generates candidates exactly as the batch miner would
//     (from this checkpoint's L_{k-1}). Candidates present in the prior
//     border sets (state.Levels — every candidate the prior checkpoint
//     counted, large or not) are seeded with their exact prefix counts and
//     advanced over the delta only. Candidates absent from the border are
//     counted over the delta and the prefix, but the prefix scan probes only
//     those new candidates.
//
// The result is bit-identical to cumulate.Mine over the concatenated
// database: candidate generation is deterministic from L_{k-1}; seeded
// counts are exact by the state invariant; and a new candidate's prefix
// count is exact even though it is counted with a smaller candidate set,
// because a candidate c whose items all lie in the pass's member set is a
// subset of the member-filtered ancestor extension of t exactly when c is a
// subset of t's full ancestor closure — independent of which other
// candidates are in the set (see DESIGN.md §11 for the argument).
//
// prior is the previous checkpoint's state, or nil for the first checkpoint
// (then prefix must be empty). prefix must cover exactly prior.LogTxns
// transactions and support concurrent Scan calls (Reader.Prefix does). The
// returned state covers prefix + delta with LogSeg/LogByte left zero — the
// caller records the log offset it mined through.
func IncrementalMine(tax *taxonomy.Taxonomy, prior *model.MiningState, prefix txn.Scanner, delta txn.Scanner, cfg MineConfig) (*cumulate.Result, *model.MiningState, *CheckpointStats, error) {
	if tax == nil {
		return nil, nil, nil, fmt.Errorf("stream: nil taxonomy")
	}
	numItems := tax.NumItems()
	prefixN := prefix.Len()
	if prior == nil {
		if prefixN != 0 {
			return nil, nil, nil, fmt.Errorf("stream: no prior state but prefix has %d txns", prefixN)
		}
	} else {
		if int64(prefixN) != prior.LogTxns {
			return nil, nil, nil, fmt.Errorf("stream: prefix has %d txns, prior state covers %d", prefixN, prior.LogTxns)
		}
		if len(prior.ItemCounts) != numItems {
			return nil, nil, nil, fmt.Errorf("stream: prior state has %d item counts, universe is %d", len(prior.ItemCounts), numItems)
		}
	}
	deltaN := delta.Len()
	n := prefixN + deltaN
	stats := &CheckpointStats{DeltaTxns: int64(deltaN), TotalTxns: int64(n)}
	if n == 0 {
		return &cumulate.Result{}, &model.MiningState{ItemCounts: make([]int64, numItems)}, stats, nil
	}
	W := cfg.Workers
	if W < 1 {
		W = 1
	}
	minCount := cumulate.MinCount(cfg.MinSupport, n)
	res := &cumulate.Result{NumTxns: n}
	state := &model.MiningState{LogTxns: int64(n)}

	// Pass 1: advance the carried per-item closure counts over the delta.
	counts := make([]int64, numItems)
	if prior != nil {
		copy(counts, prior.ItemCounts)
	}
	if deltaN > 0 {
		deltaCounts, err := driver.CountItems(tax, delta, W, driver.ShardObs{}, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("stream: pass 1: %w", err)
		}
		for i, c := range deltaCounts {
			counts[i] += c
		}
	}
	state.ItemCounts = counts
	stats.Passes = 1
	var l1 []itemset.Counted
	nLarge := 0
	for i, c := range counts {
		if c >= minCount {
			nLarge++
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	res.Large = append(res.Large, l1)
	if nLarge < 2 || cfg.MaxK == 1 {
		return res, state, stats, nil
	}

	prev := make([][]item.Item, len(l1))
	for i, c := range l1 {
		prev[i] = c.Items
	}
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		cands := cumulate.GenerateCandidates(tax, prev, k)
		if len(cands) == 0 {
			break
		}
		stats.Passes++
		stats.Candidates += len(cands)

		// Seed known candidates with their exact prefix counts, found through
		// a Table over the prior border level (empty when the prior checkpoint
		// never reached pass k); collect the rest, in ascending candidate-id
		// order, for the scoped prefix rescan.
		var border []itemset.Counted
		if prior != nil && k-2 < len(prior.Levels) {
			border = prior.Levels[k-2]
		}
		borderSets := make([][]item.Item, len(border))
		for i, c := range border {
			borderSets[i] = c.Items
		}
		seeded := itemset.BuildTable(borderSets)
		candCounts := make([]int64, len(cands))
		var newCands [][]item.Item
		var newIDs []int
		for id, c := range cands {
			if at := seeded.Lookup(c); at >= 0 {
				candCounts[id] = border[at].Count
			} else {
				newCands = append(newCands, c)
				newIDs = append(newIDs, id)
			}
		}
		stats.Recounted += len(newCands)

		// count scans src for sets, adding set i's support to
		// candCounts[ids[i]] (candCounts[i] when ids is nil).
		var scanned metrics.NodeStats // both scans' counters
		count := func(sets [][]item.Item, ids []int, src txn.Scanner) error {
			member := cumulate.KeepSet(tax, sets)
			wcounts := driver.WorkerVectors(W, len(sets))
			err := driver.CountTable(taxonomy.NewView(tax, nil, member), member, itemset.BuildIndex(sets), k, src, wcounts,
				driver.CountOptions{Workers: W, Stats: &scanned})
			for i, c := range driver.MergeWorkerVectors(wcounts) {
				if ids != nil {
					i = ids[i]
				}
				candCounts[i] += c
			}
			return err
		}

		// Delta scan: every candidate advances by its delta support.
		if deltaN > 0 {
			if err := count(cands, nil, delta); err != nil {
				return nil, nil, nil, fmt.Errorf("stream: pass %d delta scan: %w", k, err)
			}
		}

		// Prefix scan: only candidates the prior checkpoint never counted.
		if len(newCands) > 0 && prefixN > 0 {
			stats.PrefixScans++
			if err := count(newCands, newIDs, prefix); err != nil {
				return nil, nil, nil, fmt.Errorf("stream: pass %d prefix scan: %w", k, err)
			}
		}
		res.Probes += scanned.Probes

		// The state stores every candidate with its union count — the full
		// positive and negative border the next checkpoint seeds from. The
		// level is stored even when L_k comes out empty: those "not large
		// yet" counts are exactly what makes a later promotion cheap.
		level := make([]itemset.Counted, len(cands))
		var lk []itemset.Counted
		for id, c := range cands {
			level[id] = itemset.Counted{Items: c, Count: candCounts[id]}
			if candCounts[id] >= minCount {
				lk = append(lk, level[id])
			}
		}
		state.Levels = append(state.Levels, level)

		// L_k was collected in candidate order; sort it lexicographically.
		itemset.SortCounted(lk)
		if len(lk) == 0 {
			break
		}
		res.Large = append(res.Large, lk)
		prev = prev[:0]
		for _, c := range lk {
			prev = append(prev, c.Items)
		}
	}
	return res, state, stats, nil
}
