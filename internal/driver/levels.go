package driver

import (
	"fmt"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/wire"
)

// LevelBarrier is the barrier half of an itemset Miner — MergeFrequents and
// FinishPass, plus the result levels they record — embedded by both itemset
// families. One barrier may resolve several levels at once (FP-Growth's single
// growth pass resolves every size >= 2); a level-wise pass resolving exactly
// L_k is the special case. The embedding miner's CountPass sets Own and
// DupSets and sends EncodeOwn as its PassOutcome.Owned.
type LevelBarrier struct {
	// Levels holds the result where the node keeps results (Node.Keep).
	itemset.Levels
	// Prev is the itemsets of the newest level, in canonical order on every
	// node: the next pass's generation input.
	Prev [][]item.Item
	// Own is this node's locally determined frequents of the pass in flight,
	// in any order; the coordinator merges its own share from here instead of
	// round-tripping it through the wire encoding.
	Own []itemset.Counted
	// DupSets is the itemset list behind PassOutcome.DupCounts, identical on
	// every node; only the coordinator's copy is read.
	DupSets [][]item.Item
}

// EncodeOwn is the barrier contribution a follower sends (PassOutcome.Owned);
// nil on the coordinator, which merges Own directly.
func (b *LevelBarrier) EncodeOwn(n *Node) []byte {
	if n.IsCoord() {
		return nil
	}
	return itemset.AppendCounted(nil, b.Own)
}

// FinishItems thresholds the reduced pass-1 vector into L_1, records it
// (like the sequential baseline, even when it is empty) and returns it.
func (b *LevelBarrier) FinishItems(n *Node, global []int64) []itemset.Counted {
	var l1 []itemset.Counted
	for i, c := range global {
		if c >= n.MinCount() {
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	if n.Keep() {
		b.Large = append(b.Large, l1)
	}
	b.stage(l1)
	return l1
}

// MergeFrequents merges the coordinator's own share, the peers' owned
// frequents and the replicated candidates whose reduced count meets the
// minimum into the global result of the pass, and returns its broadcast form:
// every itemset in (size, lexicographic) order — byte-identical regardless of
// node count, worker count or task scheduling.
func (b *LevelBarrier) MergeFrequents(n *Node, _ int, peerOwned [][]byte, dupTotal []int64) ([]byte, int, error) {
	all := b.Own
	for _, p := range peerOwned {
		d := wire.NewDec(p)
		cs := itemset.ParseCounted(&d)
		if err := d.Done(); err != nil {
			return nil, 0, fmt.Errorf("driver: decode owned frequents: %w", err)
		}
		all = append(all, cs...)
	}
	for i, c := range dupTotal {
		if c >= n.MinCount() {
			all = append(all, itemset.Counted{Items: b.DupSets[i], Count: c})
		}
	}
	itemset.SortCounted(all)
	b.record(n, all)
	return itemset.AppendCounted(nil, all), len(all), nil
}

// FinishPass decodes the coordinator's broadcast on a follower.
func (b *LevelBarrier) FinishPass(n *Node, _ int, payload []byte) (int, error) {
	d := wire.NewDec(payload)
	all := itemset.ParseCounted(&d)
	if err := d.Done(); err != nil {
		return 0, fmt.Errorf("driver: decode frequents broadcast: %w", err)
	}
	b.record(n, all)
	return len(all), nil
}

// record splits all — in (size, lex) order — into one level per size, stores
// the levels where results are kept and stages the newest. Mirroring the
// sequential baseline, an empty result terminates the run and is not recorded
// as a level.
func (b *LevelBarrier) record(n *Node, all []itemset.Counted) {
	var newest []itemset.Counted
	for lo, hi := 0, 0; lo < len(all); lo = hi {
		for hi < len(all) && len(all[hi].Items) == len(all[lo].Items) {
			hi++
		}
		newest = all[lo:hi:hi]
		if n.Keep() {
			b.Large = append(b.Large, newest)
		}
	}
	b.stage(newest)
}

// stage makes level the next pass's generation input.
func (b *LevelBarrier) stage(level []itemset.Counted) {
	b.Prev = b.Prev[:0]
	for _, c := range level {
		b.Prev = append(b.Prev, c.Items)
	}
}

// Result is the run's outcome as the engine entry points return it.
func (b *LevelBarrier) Result(stats *metrics.RunStats) *Result {
	return &Result{Levels: b.Levels, Stats: stats}
}
