package driver

import (
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// finishItems thresholds the reduced pass-1 vector into L_1, records it (like
// the sequential baseline, even when it is empty) and returns it.
func (n *Node) finishItems(global []int64) []itemset.Counted {
	var l1 []itemset.Counted
	for i, c := range global {
		if c >= n.minCount {
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	if n.Keep() {
		n.levels.Large = append(n.levels.Large, l1)
	}
	n.stage(l1)
	return l1
}

// mergeFrequents is the coordinator's merge of a pass: its own frequents, the
// peers' KLocalLarge messages (released here) and the replicated candidates
// whose reduced count meets the minimum, in (size, lexicographic) order —
// byte-identical regardless of node count, worker count or task scheduling.
func (n *Node) mergeFrequents(out PassOutcome, peerOwned []cluster.Message, dupTotal []int64) ([]itemset.Counted, error) {
	all := out.Own
	for _, m := range peerOwned {
		cs, err := parseFrequents(m.Payload)
		if err != nil {
			return nil, fmt.Errorf("driver: decode owned frequents from node %d: %w", m.From, err)
		}
		all = append(all, cs...)
	}
	for i, c := range dupTotal {
		if c >= n.minCount {
			all = append(all, itemset.Counted{Items: out.DupSets[i], Count: c})
		}
	}
	itemset.SortCounted(all)
	return all, nil
}

// parseFrequents decodes one encoded frequent list (KLocalLarge, KLarge) and
// releases the payload; the itemsets it returns are copies.
func parseFrequents(payload []byte) ([]itemset.Counted, error) {
	d := wire.NewDec(payload)
	cs := itemset.ParseCounted(&d)
	cluster.Release(payload)
	return cs, d.Done()
}

// record splits all — in (size, lex) order — into one level per size, stores
// the levels where results are kept and stages the newest. One barrier may
// resolve several sizes at once (FP-Growth's growth pass). Mirroring the
// sequential baseline, an empty result terminates the run and is not
// recorded as a level.
func (n *Node) record(all []itemset.Counted) {
	var newest []itemset.Counted
	for lo, hi := 0, 0; lo < len(all); lo = hi {
		for hi < len(all) && len(all[hi].Items) == len(all[lo].Items) {
			hi++
		}
		newest = all[lo:hi:hi]
		if n.Keep() {
			n.levels.Large = append(n.levels.Large, newest)
		}
	}
	n.stage(newest)
}

// stage makes level the next pass's generation input.
func (n *Node) stage(level []itemset.Counted) {
	n.prev = n.prev[:0]
	for _, c := range level {
		n.prev = append(n.prev, c.Items)
	}
}
