package core

import (
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
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
	itemCounts []int64       // global pass-1 counts per item (after reduce)
	largeFlags []bool        // large[i] per item
	curCands   [][]item.Item // C_k of the pass in flight

	// The L_k barrier: result levels, the generation input (Prev) and this
	// node's barrier contribution of the pass in flight.
	driver.LevelBarrier
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
	l1 := m.FinishItems(n, global)
	for _, c := range l1 {
		m.largeFlags[c.Items[0]] = true
	}
	return len(l1), nil
}

// Generate materializes C_k from L_{k-1}; deterministic on every node (same
// L_{k-1}, same generator), materialized once and shared read-only via
// candCache. The first node goroutine per pass runs the sharded generator
// across its scan workers, with each shard visible as a worker-lane sub-span.
func (m *itemsetMiner) Generate(n *driver.Node, k int) (int, error) {
	m.curCands = m.cands.generate(k, m.Prev, n.Workers(),
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
// (over the assignment PlanPass computed) and stages the outcome for the
// barrier.
func (m *itemsetMiner) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	out, err := m.eng.pass(n, k, m.curCands, st)
	if err != nil {
		return driver.PassOutcome{}, err
	}
	m.Own, m.DupSets = out.owned, out.dupSets
	return driver.PassOutcome{
		Owned:      m.EncodeOwn(n),
		DupCounts:  out.dupCounts,
		Duplicated: out.duplicated,
		Fragments:  out.fragments,
	}, nil
}
