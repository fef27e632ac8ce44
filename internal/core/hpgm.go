package core

import (
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// hpgmEngine implements HPGM (§3.2): candidates are hash-partitioned over
// the nodes by hashing the whole itemset, ignoring the hierarchy. During
// count support every node extends each local transaction with all
// ancestors, enumerates its k-subsets and ships every subset to the node
// whose hash owns it; the subsets a node owns itself it counts in place.
// The ancestors travel too — Example 1's transaction of 3 items turns into
// 18 shipped items — which is exactly the communication blow-up H-HPGM
// eliminates (Table 6).
type hpgmEngine struct {
	itemsetMiner

	// owned is this node's candidate share, computed by PlanPass for the pass
	// in flight.
	owned [][]item.Item

	// Reused across passes: the owned share's count vectors, counts[0] the
	// receiver's and counts[1+w] scan worker w's, and each worker's kernel
	// stamps and subset walker.
	counts [][]int64
	stamps []itemset.Stamps
	walks  []itemset.Subsets
}

// PlanPass partitions C_k: node i keeps the candidates hashing to i. One loop
// hashes every candidate and counts the owned ones; the owned list is then
// sized once and collected in id order.
func (e *hpgmEngine) PlanPass(n *driver.Node, _ int) (driver.PlanDecision, error) {
	cands := e.curCands
	nNodes := n.NumNodes()
	self := n.ID()
	psp := n.Span("partition")
	ownedFlag := make([]bool, len(cands))
	nOwned := 0
	for i, c := range cands {
		if int(itemset.Hash(c)%uint64(nNodes)) == self {
			ownedFlag[i] = true
			nOwned++
		}
	}
	if cap(e.owned) < nOwned {
		e.owned = make([][]item.Item, 0, nOwned)
	}
	e.owned = e.owned[:0]
	for i, c := range cands {
		if ownedFlag[i] {
			e.owned = append(e.owned, c)
		}
	}
	psp.Arg("owned", int64(len(e.owned)))
	psp.End()
	return driver.PlanDecision{Partitioner: "itemset-hash", Granule: "none"}, nil
}

func (e *hpgmEngine) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	nNodes := uint64(n.NumNodes())
	self := n.ID()

	// Two questions are asked of the owned share: each scan worker counts
	// its transactions' own subsets through the Index, and the receiver
	// looks up each shipped unit in the Table.
	W := n.Workers()
	index := itemset.BuildIndex(e.owned)
	table := itemset.BuildTable(e.owned)
	e.grow(W, len(e.owned))
	counts := e.counts[0]

	closure := taxonomy.SetsClosure(e.tax, e.curCands)

	// The receiver goroutine alone touches counts; each scan worker counts
	// its own share into its own vector and routes the rest through its
	// batcher. One unit = one k-itemset hashed to this node: one probe of
	// its candidate table (the per-node quantity Figure 15 plots).
	xsp := n.Span("exchange")
	var unit []item.Item
	cp := n.NewExchange(driver.KData, func(b []byte) (int64, error) {
		units, items, hits, err := table.CountUnits(b, counts, &unit)
		st.Probes += units
		st.Increments += hits
		return items, err
	})
	err := driver.CountPhase(n.Local(), W, n.ShardObs("count"), st, closure, cp,
		func(w *driver.Worker, _ txn.Transaction) error {
			// Every k-subset is hashed to find its owner. One this node owns
			// is a probe of its own table, answered for all of them at once
			// by the containment kernel, since the owned candidates are
			// exactly the k-subsets hashing here; the rest are encoded
			// straight into their owner's batch.
			walk := &e.walks[w.ID]
			var own, sent int64
			for ok := walk.Reset(w.Ext, k); ok; ok = walk.Next() {
				dest := int(walk.Hash() % nNodes)
				if dest == self {
					own++
					continue
				}
				sent++
				if err := w.Bat.AddItems(dest, walk.Items()); err != nil {
					return err
				}
			}
			ws := &w.Stats
			ws.Probes += own
			ws.ItemsSent += sent * int64(k)
			ws.Increments += index.CountContained(w.Ext, e.counts[1+w.ID], &e.stamps[w.ID])
			return nil
		})
	xsp.End()
	if err != nil {
		return driver.PassOutcome{}, err
	}
	return driver.PassOutcome{
		Own:       largeOf(e.owned, driver.MergeWorkerVectors(e.counts), n.MinCount()),
		Fragments: 1,
	}, nil
}

// grow readies 1+W zeroed count vectors of length nOwned, plus W stamps
// and subset walkers, reusing what earlier passes allocated (W is fixed for
// the run).
func (e *hpgmEngine) grow(W, nOwned int) {
	if e.counts == nil {
		e.counts = make([][]int64, 1+W)
		e.stamps = make([]itemset.Stamps, W)
		e.walks = make([]itemset.Subsets, W)
	}
	for i, c := range e.counts {
		if cap(c) < nOwned {
			e.counts[i] = make([]int64, nOwned)
		} else {
			e.counts[i] = c[:nOwned]
			clear(e.counts[i])
		}
	}
}

// largeOf extracts L_k^n, the owned candidates meeting minCount that each
// partitioned node determines individually, in id order.
func largeOf(owned [][]item.Item, counts []int64, minCount int64) []itemset.Counted {
	var large []itemset.Counted
	for id, c := range counts {
		if c >= minCount {
			large = append(large, itemset.Counted{Items: owned[id], Count: c})
		}
	}
	return large
}
