package core

import (
	"sync"

	"pgarm/internal/cumulate"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
)

// passOnce computes a value once per pass and shares it among the node
// goroutines. The pass-barrier protocol guarantees no caller requests pass
// k+1 before every node's pass-k call returned, so a single slot suffices.
type passOnce[T any] struct {
	mu   sync.Mutex
	pass int
	val  T
	wg   sync.WaitGroup
	busy bool
}

// get returns the pass-k value, invoking compute on the first call per pass.
// compute must be a pure function of state replicated on every node.
func (p *passOnce[T]) get(k int, compute func() T) T {
	p.mu.Lock()
	if p.pass == k {
		busy := p.busy
		p.mu.Unlock()
		if busy {
			p.wg.Wait()
		}
		return p.val
	}
	p.pass = k
	p.busy = true
	var zero T
	p.val = zero
	p.wg.Add(1)
	p.mu.Unlock()

	v := compute()

	p.mu.Lock()
	p.val = v
	p.busy = false
	p.mu.Unlock()
	p.wg.Done()
	return v
}

// candCache shares each pass's replicated data structures between the node
// goroutines.
//
// In the paper every node independently derives C_k, the partition map and
// the duplication choice from the broadcast L_{k-1} — there is no shared
// memory on the SP-2, but the derivations are pure functions of replicated
// state, so all nodes produce identical values. Materializing them once
// instead of N times is a simulation shortcut that changes no measured
// quantity (candidate counts, probes, bytes) but keeps a 16-node in-process
// cluster from holding 16 copies of multi-million-entry structures. Nodes
// treat everything returned here as read-only.
//
// The first node goroutine to ask for a value builds it alone, in one loop;
// its peers wait. A boundary build takes milliseconds, too small a task for
// a worker fan-out to pay for itself (EXPERIMENTS.md, "Parallel pass
// boundaries").
type candCache struct {
	tax  *taxonomy.Taxonomy
	gen  passOnce[itemset.Sets]
	plan passOnce[*passPlan]
}

// passPlan is the H-HPGM family's shared partition plan for one pass.
type passPlan struct {
	// vecHashes[i] is the FNV hash of candidate i's root vector; owners[i]
	// the node that hash assigns. The packed vector strings the plan used to
	// carry (one allocation per candidate) are gone: every consumer needs
	// only the hash or the recomputable vector.
	vecHashes []uint64
	owners    []int
	// dup flags duplicated candidate ids; dupSets lists them in ascending
	// id order (the order of the per-node count vectors), and dupIndex
	// indexes dupSets. A plan that replicates every candidate whatever C_k
	// holds (NPGM's, an unbudgeted variant's) has no vecHashes, owners or
	// dup, and no dupIndex when it has several fragments.
	dup      bitset
	dupSets  itemset.Sets
	dupIndex *itemset.Index
	// fragments is how many memory-sized scans count the pass: above 1 only
	// for a fragmented NPGM pass (fragmentCount).
	fragments int
	// decision is the plan's report-facing summary (partitioner, granule,
	// duplicated count); shared like the rest of the plan so every
	// in-process node publishes the identical decision.
	decision metrics.PlanDecision
}

func newCandCache(tax *taxonomy.Taxonomy) *candCache {
	return &candCache{tax: tax}
}

// generate returns C_k for pass k. prev must be the identical large
// (k-1)-itemsets every caller holds after the pass barrier.
func (c *candCache) generate(k int, prev []itemset.Counted) itemset.Sets {
	return c.gen.get(k, func() itemset.Sets {
		return cumulate.GenerateCandidates(c.tax, prev, k)
	})
}

// hierPlan returns the shared partition plan for pass k.
func (c *candCache) hierPlan(k int, compute func() *passPlan) *passPlan {
	return c.plan.get(k, compute)
}
