package core

import (
	"fmt"

	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// itemsetMiner is the itemset-mining half of a node: the driver.Miner that
// plugs the paper's six algorithms into the shared-nothing runtime. One
// instance per node; the runtime calls its hooks from the node goroutine in
// protocol order.
type itemsetMiner struct {
	tax   *taxonomy.Taxonomy
	db    txn.Scanner
	cfg   Config
	cands *candCache
	eng   engine

	// Global mining state, identical on every node after each barrier.
	itemCounts []int64 // global pass-1 counts per item (after reduce)
	largeFlags []bool  // large[i] per item
	prev       [][]item.Item
	curCands   [][]item.Item // C_k of the pass in flight

	// Barrier contribution of the pass in flight (see engineOut); the
	// coordinator merges its own share from here instead of round-tripping it
	// through the wire encoding.
	out engineOut

	// Result accumulation, filled where the runtime keeps results.
	large [][]itemset.Counted
}

func newItemsetMiner(tax *taxonomy.Taxonomy, db txn.Scanner, cfg Config, cands *candCache) (*itemsetMiner, error) {
	m := &itemsetMiner{tax: tax, db: db, cfg: cfg, cands: cands}
	eng, err := newEngine(m)
	if err != nil {
		return nil, err
	}
	m.eng = eng
	return m, nil
}

func (m *itemsetMiner) LocalSize() int { return m.db.Len() }

func (m *itemsetMiner) NumItems() int { return m.tax.NumItems() }

// CountPass1 counts every item and all its ancestors over the local
// partition — the dense pass 1 all itemset miners share.
func (m *itemsetMiner) CountPass1(n *driver.Node, st *metrics.NodeStats) ([]int64, error) {
	return driver.CountItems(m.tax, m.db, n.Workers(), n.ShardObs("scan"), st)
}

// FinishPass1 consumes the globally reduced pass-1 counts and derives the
// replicated L_1 state every later pass builds on.
func (m *itemsetMiner) FinishPass1(n *driver.Node, global []int64) (int, error) {
	m.itemCounts = global
	m.largeFlags = make([]bool, m.tax.NumItems())
	var l1 []itemset.Counted
	for i, c := range global {
		if c >= n.MinCount() {
			m.largeFlags[i] = true
			m.prev = append(m.prev, []item.Item{item.Item(i)})
			l1 = append(l1, itemset.Counted{Items: []item.Item{item.Item(i)}, Count: c})
		}
	}
	if n.Keep() {
		m.large = append(m.large, l1)
	}
	return len(l1), nil
}

// Generate materializes C_k from L_{k-1}; deterministic on every node (same
// L_{k-1}, same generator), materialized once and shared read-only via
// candCache. The first node goroutine per pass runs the sharded generator
// across its scan workers, with each shard visible as a worker-lane sub-span.
func (m *itemsetMiner) Generate(n *driver.Node, k int) (int, error) {
	m.curCands = m.cands.generate(k, m.prev, n.Workers(),
		n.BoundaryObs("generate shard").Hook())
	return len(m.curCands), nil
}

// PlanPass delegates pass k's candidate-to-node assignment to the algorithm
// engine. prev is the cluster skew snapshot the coordinator broadcast for
// this pass (nil in the first passes); adaptive H-HPGM configurations use it
// to escalate duplication per hot taxonomy subtree.
func (m *itemsetMiner) PlanPass(n *driver.Node, k int, prev *metrics.SkewReport) (driver.PlanDecision, error) {
	dec, err := m.eng.plan(n, k, m.curCands, prev)
	if err != nil {
		return driver.PlanDecision{}, err
	}
	dec.Candidates = len(m.curCands)
	return dec, nil
}

// CountPass delegates pass k's count-support phase to the algorithm engine
// (over the assignment PlanPass computed) and keeps the full outcome for the
// barrier hooks.
func (m *itemsetMiner) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	out, err := m.eng.pass(n, k, m.curCands, st)
	if err != nil {
		return driver.PassOutcome{}, err
	}
	m.out = out
	po := driver.PassOutcome{
		DupCounts:  out.dupCounts,
		Duplicated: out.duplicated,
		Fragments:  out.fragments,
	}
	if !n.IsCoord() {
		po.Owned = wire.AppendCounted(nil, out.ownedSets, out.ownedCounts)
	}
	return po, nil
}

// MergeFrequents merges the coordinator's own owned share, the peers' owned
// frequents and the reduced replicated counts into the global L_k.
func (m *itemsetMiner) MergeFrequents(n *driver.Node, k int, peerOwned [][]byte, dupTotal []int64) ([]byte, int, error) {
	var all []itemset.Counted
	for i := range m.out.ownedSets {
		all = append(all, itemset.Counted{Items: m.out.ownedSets[i], Count: m.out.ownedCounts[i]})
	}
	for _, p := range peerOwned {
		sets, counts, _, err := wire.Counted(p)
		if err != nil {
			return nil, 0, fmt.Errorf("core: decode owned larges: %w", err)
		}
		for i := range sets {
			all = append(all, itemset.Counted{Items: sets[i], Count: counts[i]})
		}
	}
	for i, c := range dupTotal {
		if c >= n.MinCount() {
			all = append(all, itemset.Counted{Items: m.out.dupSets[i], Count: c})
		}
	}
	itemset.SortCounted(all)

	sets := make([][]item.Item, len(all))
	counts := make([]int64, len(all))
	for i, c := range all {
		sets[i] = c.Items
		counts[i] = c.Count
	}
	m.record(n, all)
	return wire.AppendCounted(nil, sets, counts), len(all), nil
}

// FinishPass decodes the coordinator's L_k broadcast on a follower.
func (m *itemsetMiner) FinishPass(n *driver.Node, _ int, payload []byte) (int, error) {
	sets, counts, _, err := wire.Counted(payload)
	if err != nil {
		return 0, fmt.Errorf("core: decode L_k broadcast: %w", err)
	}
	lk := make([]itemset.Counted, len(sets))
	for i := range sets {
		lk[i] = itemset.Counted{Items: sets[i], Count: counts[i]}
	}
	m.record(n, lk)
	return len(lk), nil
}

// record stores L_k (mirroring the sequential baseline, an empty L_k
// terminates the run and is not recorded as a level) and stages it as the
// next pass's generation input.
func (m *itemsetMiner) record(n *driver.Node, lk []itemset.Counted) {
	if n.Keep() && len(lk) > 0 {
		m.large = append(m.large, lk)
	}
	m.prev = m.prev[:0]
	for _, c := range lk {
		m.prev = append(m.prev, c.Items)
	}
}
