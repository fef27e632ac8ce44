package core

import (
	"fmt"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
)

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
	itemsetMiner
}

// PlanPass is trivial for NPGM: the candidate set is fully replicated, so
// there is no assignment to compute.
func (e *npgmEngine) PlanPass(*driver.Node, int) (driver.PlanDecision, error) {
	return driver.PlanDecision{
		Partitioner: "replicated",
		Granule:     "all",
		Duplicated:  len(e.curCands),
	}, nil
}

func (e *npgmEngine) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	cands := e.curCands
	frags := fragmentCount(len(cands), k, e.cfg.MemoryBudget)
	// One KeepSet serves both roles, the ancestor keep set and the
	// pre-enumeration membership filter, as one closure; the view builds
	// nothing else.
	member := cumulate.KeepSet(e.tax, cands)
	view := taxonomy.NewView(e.tax, nil, member)

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
			index = e.cands.fullIndex(k, cands)
		} else {
			index = itemset.BuildIndex(cands[lo:hi])
		}
		for w := range window {
			window[w] = wcounts[w][lo:hi]
		}
		err := driver.CountTable(view, member, index, k, n.Local(), window, driver.CountOptions{
			Workers: W,
			Obs:     n.ShardObs("scan"),
			Stats:   st,
		})
		if err != nil {
			return driver.PassOutcome{}, fmt.Errorf("fragment %d scan: %w", f, err)
		}
	}
	counts := driver.MergeWorkerVectors(wcounts)

	// NPGM has no count-support communication: the only exchange is the
	// reduce of the replicated counts, which the runtime's barrier performs.
	// (The paper broadcasts each fragment's L_k^d as it completes; reducing
	// once after the last fragment yields the same L_k with one barrier.)
	return driver.PassOutcome{
		DupSets:    cands,
		DupCounts:  counts,
		Duplicated: len(cands),
		Fragments:  frags,
	}, nil
}
