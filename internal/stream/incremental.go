package stream

import (
	"fmt"
	"math"
	"slices"

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
// all candidates the checkpoint's passes generated, only the recounted ones
// (absent from the prior border sets and not ruled out by a carried bound)
// needed a scan of the frozen prefix — everything else was counted over the
// delta alone.
type CheckpointStats struct {
	// DeltaTxns/TotalTxns are the new and cumulative transaction counts.
	DeltaTxns int64 `json:"delta_txns"`
	TotalTxns int64 `json:"total_txns"`
	// Passes is the number of executed passes (including pass 1).
	Passes int `json:"passes"`
	// Candidates counts every candidate across the k >= 2 passes.
	Candidates int `json:"candidates"`
	// Recounted is how many of those candidates were rescanned over the
	// prefix: absent from the prior checkpoint's border, and with no carried
	// bound low enough to prune them.
	Recounted int `json:"recounted"`
	// Pruned is how many candidates absent from the prior border were
	// proven small by a carried bound and skipped the prefix scan.
	Pruned int `json:"pruned"`
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
//     (from this checkpoint's L_{k-1}) and counts all of them over the
//     delta. Candidates present in the prior border sets (state.Levels —
//     every candidate the prior checkpoint counted, large or not) are
//     seeded with their exact prefix counts. A candidate absent from the
//     border is bounded by the least prefix count the prior state holds
//     for it (seed); if that bound plus its delta support is below the
//     minimum count it cannot be large, and it goes into the new state's
//     bound level uncounted. Only the candidates left are counted over the
//     prefix, and that scan probes only them.
//
// The result is bit-identical to cumulate.Mine over the concatenated
// database: candidate generation is deterministic from L_{k-1}; seeded
// counts are exact by the state invariant; a pruned candidate is not large,
// because closure support is anti-monotone and every term of its bound is
// an exact prefix count or a bound built from them; and a new candidate's
// prefix count is exact even though it is counted with a smaller candidate
// set, because a candidate c whose items all lie in the pass's member set
// is a subset of the member-filtered ancestor extension of t exactly when c
// is a subset of t's full ancestor closure — independent of which other
// candidates are in the set (see DESIGN.md §11 for the argument).
//
// prior is the previous checkpoint's state, or nil for the first checkpoint
// (then prefix must be empty). It may have been mined at any minimum
// support and MaxK: pruning reads only its counts. prefix must cover
// exactly prior.LogTxns transactions and support concurrent Scan calls
// (Reader.Prefix does). The returned state covers prefix + delta with
// LogSeg/LogByte left zero — the caller records the log offset it mined
// through.
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

	prev := l1
	for k := 2; cfg.MaxK == 0 || k <= cfg.MaxK; k++ {
		cands := cumulate.GenerateCandidates(tax, prev, k)
		if cands.Len() == 0 {
			break
		}
		stats.Passes++
		stats.Candidates += cands.Len()
		candCounts, ub := seed(prior, cands, k)

		// count scans src for sets, adding set i's support to
		// candCounts[ids[i]] (candCounts[i] when ids is nil).
		var scanned metrics.NodeStats // both scans' counters
		count := func(sets itemset.Sets, ids []int32, src txn.Scanner) error {
			member := cumulate.Keep(tax, sets)
			wcounts := driver.WorkerVectors(W, sets.Len())
			err := driver.CountTable(taxonomy.NewView(tax, nil, member), member, itemset.NewIndex(sets), k, src, wcounts,
				driver.CountOptions{Workers: W, Stats: &scanned})
			for i, c := range driver.MergeWorkerVectors(wcounts) {
				if ids != nil {
					i = int(ids[i])
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

		// Prune what cannot be large, keeping bound + delta support as the
		// new bound; the rest of the candidates absent from the border are
		// rescanned. An empty prefix holds nothing to rescan, so every count
		// is already exact there.
		var rescanIDs []int32
		for id, u := range ub {
			switch {
			case u == exact:
			case prefixN > 0 && u != noBound && u+candCounts[id] < minCount:
				ub[id] = u + candCounts[id]
				stats.Pruned++
			default:
				ub[id] = exact
				rescanIDs = append(rescanIDs, int32(id))
			}
		}
		stats.Recounted += len(rescanIDs)
		if len(rescanIDs) > 0 && prefixN > 0 {
			stats.PrefixScans++
			if err := count(cands.Subset(rescanIDs), rescanIDs, prefix); err != nil {
				return nil, nil, nil, fmt.Errorf("stream: pass %d prefix scan: %w", k, err)
			}
		}
		res.Probes += scanned.Probes

		// The state stores every counted candidate with its union count — the
		// full positive and negative border the next checkpoint seeds from —
		// and every pruned one with its bound. Both levels are stored even
		// when L_k comes out empty: those "not large yet" counts and bounds
		// are exactly what makes a later promotion or pruning cheap.
		level := make([]itemset.Counted, 0, cands.Len())
		bounds := make([]itemset.Counted, 0)
		var lk []itemset.Counted
		for id := range cands.Len() {
			c := cands.At(id)
			if ub[id] != exact {
				bounds = append(bounds, itemset.Counted{Items: c, Count: ub[id]})
				continue
			}
			level = append(level, itemset.Counted{Items: c, Count: candCounts[id]})
			if candCounts[id] >= minCount {
				lk = append(lk, level[len(level)-1])
			}
		}
		state.Levels = append(state.Levels, level)
		state.Bounds = append(state.Bounds, bounds)

		// L_k was collected in candidate order; sort it lexicographically.
		itemset.SortCounted(lk)
		if len(lk) == 0 {
			break
		}
		res.Large = append(res.Large, lk)
		prev = lk
	}
	return res, state, stats, nil
}

// exact marks a candidate whose prefix count is known exactly; noBound one
// the prior state holds no count for. Every other ub value is an upper
// bound on the prefix count.
const (
	exact   = -1
	noBound = math.MaxInt64
)

// seed walks pass k's ascending candidates against the prior border and
// bound levels of pass k (both ascending, and disjoint) in one merge. A
// border candidate gets its exact prefix count in counts and ub[id] =
// exact. Any other candidate gets in ub[id] the least of what the prior
// state holds on its prefix support: its own carried bound, its items'
// closure counts (k = 2), and the exact counts of its (k-1)-subsets in the
// border level k-1 (binary search) — noBound when it holds none of them.
// Closure support is anti-monotone, so each is an upper bound; none depends
// on the minimum support or MaxK the prior checkpoint ran with.
func seed(prior *model.MiningState, cands itemset.Sets, k int) (counts, ub []int64) {
	counts = make([]int64, cands.Len())
	ub = make([]int64, cands.Len())
	var border, bounds, subs []itemset.Counted
	if prior != nil {
		border, bounds, subs = levelOf(prior.Levels, k), levelOf(prior.Bounds, k), levelOf(prior.Levels, k-1)
	}
	sub := make([]item.Item, 0, k-1)
	b, n := 0, 0
	for id := range cands.Len() {
		c := cands.At(id)
		for b < len(border) && item.Compare(border[b].Items, c) < 0 {
			b++
		}
		if b < len(border) && item.Equal(border[b].Items, c) {
			counts[id], ub[id] = border[b].Count, exact
			continue
		}
		u := int64(noBound)
		for n < len(bounds) && item.Compare(bounds[n].Items, c) < 0 {
			n++
		}
		if n < len(bounds) && item.Equal(bounds[n].Items, c) {
			u = bounds[n].Count
		}
		if prior != nil && k == 2 {
			u = min(u, prior.ItemCounts[c[0]], prior.ItemCounts[c[1]])
		}
		for drop := 0; drop < k && len(subs) > 0; drop++ {
			sub = append(append(sub[:0], c[:drop]...), c[drop+1:]...)
			if i, ok := slices.BinarySearchFunc(subs, sub, compareCounted); ok {
				u = min(u, subs[i].Count)
			}
		}
		ub[id] = u
	}
	return counts, ub
}

func compareCounted(c itemset.Counted, s []item.Item) int { return item.Compare(c.Items, s) }

// levelOf returns the k-itemset level of a state's levels, nil when the
// state holds none.
func levelOf(levels [][]itemset.Counted, k int) []itemset.Counted {
	if k < 2 || k-2 >= len(levels) {
		return nil
	}
	return levels[k-2]
}
