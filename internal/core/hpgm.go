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
// whose hash owns it. The ancestors travel too — Example 1's transaction of
// 3 items turns into 18 shipped items — which is exactly the communication
// blow-up H-HPGM eliminates (Table 6).
type hpgmEngine struct {
	m *itemsetMiner

	// owned is this node's candidate share, computed by plan for the pass in
	// flight.
	owned [][]item.Item
}

// plan partitions C_k: node i keeps the candidates hashing to i. One loop
// hashes every candidate and counts the owned ones; the owned list is then
// sized once and collected in id order.
func (e *hpgmEngine) plan(n *driver.Node, k int, cands [][]item.Item) (driver.PlanDecision, error) {
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

func (e *hpgmEngine) pass(n *driver.Node, k int, cands [][]item.Item, st *metrics.NodeStats) (engineOut, error) {
	m := e.m
	nNodes := n.NumNodes()
	self := n.ID()

	W := n.Workers()
	index := itemset.BuildIndex(e.owned)
	counts := make([]int64, len(e.owned))

	closure := taxonomy.SetsClosure(m.tax, cands)

	// The receiver goroutine alone touches the owned counts; scan workers
	// only route units into per-worker batchers.
	xsp := n.Span("exchange")
	cp := n.NewExchange(driver.KData, driver.ItemsApplier(func(items []item.Item) {
		// One unit = one k-itemset hashed to this node: one probe of its
		// candidate table (the per-node quantity Figure 15 plots).
		st.Probes++
		if id := index.Lookup(items); id >= 0 {
			counts[id]++
			st.Increments++
		}
	}))
	wsub := make([][]item.Item, W) // per-worker subset enumeration scratch
	for w := range wsub {
		wsub[w] = make([]item.Item, k)
	}
	err := driver.CountPhase(m.db, W, n.ShardObs("count"), st, closure, cp,
		func(w *driver.Worker, _ txn.Transaction) error {
			ws, bat := &w.Stats, w.Bat
			var sendErr error
			itemset.ForEachSubsetScratch(w.Ext, k, wsub[w.ID], func(sub []item.Item) bool {
				dest := int(itemset.Hash(sub) % uint64(nNodes))
				if dest != self {
					ws.ItemsSent += int64(len(sub))
				}
				if err := bat.AddItems(dest, sub); err != nil {
					sendErr = err
					return false
				}
				return true
			})
			return sendErr
		})
	xsp.End()
	if err != nil {
		return engineOut{}, err
	}

	return engineOut{
		owned:     largeOf(e.owned, counts, n.MinCount()),
		fragments: 1,
	}, nil
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
