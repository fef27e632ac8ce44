package core

import (
	"fmt"

	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// itemsetMiner is the node state the paper's six algorithms share: the
// replicated pass-1 results and the candidates of the pass in flight. Each
// algorithm's engine embeds it and is itself the driver.Miner that plugs the
// algorithm into the shared-nothing runtime: itemsetMiner supplies
// FinishPass1 and Generate, the engine the plan and count phases (PlanPass,
// CountPass). One engine per node; the runtime calls its hooks from the node
// goroutine in protocol order.
type itemsetMiner struct {
	tax   *taxonomy.Taxonomy
	cfg   Config
	cands *candCache

	// Global mining state, identical on every node after each barrier.
	itemCounts []int64       // global pass-1 counts per item (after reduce)
	largeFlags []bool        // large[i] per item
	curCands   [][]item.Item // C_k of the pass in flight
}

// newMiner instantiates one node's engine for the configured algorithm.
func newMiner(tax *taxonomy.Taxonomy, cfg Config, cands *candCache) (driver.Miner, error) {
	m := itemsetMiner{tax: tax, cfg: cfg, cands: cands}
	switch cfg.Algorithm {
	case NPGM:
		return &hierEngine{itemsetMiner: m, dup: dupAll}, nil
	case HPGM:
		return &hpgmEngine{itemsetMiner: m}, nil
	case HHPGM:
		return &hierEngine{itemsetMiner: m, dup: dupNone}, nil
	case HHPGMTGD:
		return &hierEngine{itemsetMiner: m, dup: dupTree}, nil
	case HHPGMPGD:
		return &hierEngine{itemsetMiner: m, dup: dupPath}, nil
	case HHPGMFGD:
		return &hierEngine{itemsetMiner: m, dup: dupFine}, nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
}

// FinishPass1 consumes the globally reduced pass-1 counts and derives the
// replicated L_1 state every later pass builds on.
func (m *itemsetMiner) FinishPass1(_ *driver.Node, _, global []int64, l1 []itemset.Counted) error {
	m.itemCounts = global
	m.largeFlags = make([]bool, m.tax.NumItems())
	for _, c := range l1 {
		m.largeFlags[c.Items[0]] = true
	}
	return nil
}

// Generate materializes C_k from L_{k-1}; deterministic on every node (same
// L_{k-1}, same generator), materialized once and shared read-only via
// candCache.
func (m *itemsetMiner) Generate(_ *driver.Node, k int, prev [][]item.Item) (int, error) {
	m.curCands = m.cands.generate(k, prev)
	return len(m.curCands), nil
}
