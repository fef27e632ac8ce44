package core

import (
	"fmt"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
)

// engineOut is one node's barrier contribution for a pass: the frequents it
// owns outright, the dense count vector of its replicated candidates (with
// the deterministically identical itemset list behind it — only the
// coordinator's copy is read), and the pass metadata.
type engineOut struct {
	owned      []itemset.Counted
	dupSets    [][]item.Item
	dupCounts  []int64
	duplicated int
	fragments  int
}

// engine is one algorithm's per-pass behaviour. The runtime (internal/driver)
// owns candidate generation and the L_k barrier; the engine owns candidate
// partitioning (the plan phase) and the count-support phase (the execute
// phase).
type engine interface {
	// plan computes pass k's candidate-to-node assignment — a pure function
	// of globally replicated state, so every node derives the identical plan.
	// Any state the count phase needs (owners, duplication choice) is held by
	// the engine.
	plan(n *driver.Node, k int, cands [][]item.Item) (driver.PlanDecision, error)
	// pass counts support for pass k over the plan computed by plan.
	pass(n *driver.Node, k int, cands [][]item.Item, st *metrics.NodeStats) (engineOut, error)
}

// newEngine instantiates the engine for the miner's configured algorithm.
func newEngine(m *itemsetMiner) (engine, error) {
	switch m.cfg.Algorithm {
	case NPGM:
		return &npgmEngine{m: m}, nil
	case HPGM:
		return &hpgmEngine{m: m}, nil
	case HHPGM:
		return &hierEngine{m: m, dup: dupNone}, nil
	case HHPGMTGD:
		return &hierEngine{m: m, dup: dupTree}, nil
	case HHPGMPGD:
		return &hierEngine{m: m, dup: dupPath}, nil
	case HHPGMFGD:
		return &hierEngine{m: m, dup: dupFine}, nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", m.cfg.Algorithm)
}

// CandBytes estimates the per-candidate memory footprint the paper's M
// models: k 4-byte items plus table entry overhead (hash bucket, count,
// header). The absolute constant only shifts where fragmentation and
// duplication kick in; the experiments sweep MemoryBudget relative to it.
func CandBytes(k int) int64 { return 48 + 4*int64(k) }

// fragmentCount returns how many memory-sized fragments NPGM must split
// |C_k| candidates into.
func fragmentCount(numCands, k int, budget int64) int {
	if budget <= 0 {
		return 1
	}
	perNode := max(budget/CandBytes(k), 1)
	return max(int((int64(numCands)+perNode-1)/perNode), 1)
}

// npgmEngine implements NPGM (§3.1): the candidate itemsets are replicated
// on every node, so each node counts its local partition independently and
// the coordinator reduces the counts. When C_k exceeds the per-node memory
// budget, the candidates are split into fragments and the local database is
// re-scanned once per fragment — the cost that makes NPGM collapse at small
// minimum support (Figure 14).
type npgmEngine struct {
	m *itemsetMiner
}

// plan is trivial for NPGM: the candidate set is fully replicated, so there
// is no assignment to compute.
func (e *npgmEngine) plan(_ *driver.Node, k int, cands [][]item.Item) (driver.PlanDecision, error) {
	return driver.PlanDecision{
		Partitioner: "replicated",
		Granule:     "all",
		Duplicated:  len(cands),
	}, nil
}

func (e *npgmEngine) pass(n *driver.Node, k int, cands [][]item.Item, st *metrics.NodeStats) (engineOut, error) {
	m := e.m
	frags := fragmentCount(len(cands), k, m.cfg.MemoryBudget)
	// One KeepSet serves both roles, the ancestor keep set and the
	// pre-enumeration membership filter, as one closure; the view builds
	// nothing else.
	member := cumulate.KeepSet(m.tax, cands)
	view := taxonomy.NewView(m.tax, nil, member)

	// The candidate set is replicated. When C_k fits in one fragment, one
	// shared index plus a per-node count vector stands in for N identical
	// hash tables (see candCache). Otherwise a scan holds only its fragment
	// [lo, hi): the node indexes it, counts into that window of every worker
	// vector, and drops the index before the next fragment. Nodes move
	// through fragments independently, so fragment indexes are not shared.
	//
	// NPGM has no count-support communication, so intra-node parallelism is
	// pure sharding: every worker counts over the read-only index
	// (Index.CountContained only reads it) into its own count vector, merged
	// once after the last fragment.
	W := n.Workers()
	wcounts := driver.WorkerVectors(W, len(cands))
	window := make([][]int64, W)
	per := (len(cands) + frags - 1) / frags
	for f := 0; f < frags; f++ {
		lo, hi := f*per, min(f*per+per, len(cands))
		var index *itemset.Index
		if frags == 1 {
			index = m.cands.fullIndex(k, cands)
		} else {
			index = itemset.BuildIndex(cands[lo:hi])
		}
		for w := range window {
			window[w] = wcounts[w][lo:hi]
		}
		err := driver.CountTable(view, member, index, k, m.db, window, driver.CountOptions{
			Workers: W,
			Obs:     n.ShardObs("scan"),
			Stats:   st,
		})
		if err != nil {
			return engineOut{}, fmt.Errorf("fragment %d scan: %w", f, err)
		}
	}
	counts := driver.MergeWorkerVectors(wcounts)

	// NPGM has no count-support communication: the only exchange is the
	// reduce of the replicated counts, which the runtime's barrier performs.
	// (The paper broadcasts each fragment's L_k^d as it completes; reducing
	// once after the last fragment yields the same L_k with one barrier.)
	return engineOut{
		dupSets:    cands,
		dupCounts:  counts,
		duplicated: len(cands),
		fragments:  frags,
	}, nil
}
