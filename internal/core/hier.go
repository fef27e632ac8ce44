package core

import (
	"fmt"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// hierWorker is the routing state one scan worker keeps beside its
// driver.Worker: a duplicated-candidate count vector, a counter for the item
// groups it selects for its own node, and every per-transaction scratch
// buffer. Nothing in here is shared, so the scan body never synchronizes.
type hierWorker struct {
	dupCounts   []int64
	dupStamps   itemset.Stamps
	own         groupCounter
	tPrime      []item.Item
	group       []item.Item
	multiset    []item.Item
	rootRuns    []rootRun
	rootsByDest [][]item.Item
	touched     []int
}

// groupCounter counts item groups into its own vector of the owned
// candidates: the receiver has one for peers' groups, each scan worker one
// for the groups it selects for its own node. The candidates contained in a
// group's ancestor closure are counted, covering both the k-itemsets
// generated from the group and "all its ancestor candidates" (Figure 5 lines
// (12)/(16)), and the group offers the owned table C(|closure|, k) probes.
type groupCounter struct {
	counts []int64
	stamps itemset.Stamps
	set    []uint64 // the closure's scratch bitset, zero between groups
	ext    []item.Item
}

func (g *groupCounter) count(cl *taxonomy.Closure, index *itemset.Index, k int, group []item.Item, st *metrics.NodeStats) {
	if g.set == nil {
		g.set = make([]uint64, cl.Words())
	}
	g.ext = cl.Extend(g.ext[:0], group, g.set)
	st.Probes += itemset.Choose(len(g.ext), k)
	st.Increments += index.CountContained(g.ext, g.counts, &g.stamps)
}

// hierEngine implements H-HPGM (§3.3) and its three skew-handling variants
// (§3.4). Candidates are partitioned by the hash of their *root vector* (the
// sorted multiset of the root of each member item), so every candidate of a
// given tree combination lives on one node and ancestors never travel:
// transactions are reduced to their closest-to-bottom large items and only
// the item groups relevant to each owner are shipped (Example 2: 3 items
// instead of HPGM's 18).
//
// The TGD/PGD/FGD variants first fill the nodes' free memory with copies of
// frequently occurring candidates — whole trees, leaf paths, or individual
// hot itemsets plus their ancestor candidates — which are then counted
// locally on every node, flattening the probe-load distribution (Fig 15).
//
// NPGM (§3.1) is the same engine with every candidate duplicated (dupAll),
// which is also what the variants do when no budget limits memory: such a
// pass is counted by countReplicated, without routing.
type hierEngine struct {
	itemsetMiner
	dup dupKind

	// replace maps items to their closest-to-bottom large ancestor. It reads
	// only L_1 and is built once, by the first pass that routes: a pass that
	// replicates every candidate never replaces an item.
	replace *taxonomy.View

	// cur is the plan of the pass in flight, computed by PlanPass, consumed
	// by CountPass. Shared across in-process nodes via candCache.
	cur *passPlan
}

// PlanPass derives the pass's partition plan (computeHierPlan): it is
// deterministic on every node, so it is computed once and shared (see
// candCache).
func (e *hierEngine) PlanPass(n *driver.Node, k int) (driver.PlanDecision, error) {
	psp := n.Span("partition")
	e.cur = e.cands.hierPlan(k, func() *passPlan {
		return computeHierPlan(&e.itemsetMiner, n.NumNodes(), e.dup, k, e.curCands)
	})
	psp.Arg("duplicated", int64(len(e.cur.dupSets)))
	psp.End()
	return e.cur.decision, nil
}

func (e *hierEngine) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	cands := e.curCands
	plan := e.cur
	if len(plan.dupSets) == len(cands) {
		return e.countReplicated(n, k, st)
	}
	if e.replace == nil {
		e.replace = taxonomy.NewView(e.tax, e.largeFlags, nil)
	}
	nNodes := n.NumNodes()
	self := n.ID()
	W := n.Workers()
	owners, dupFlag := plan.owners, plan.dup

	// vecInfo drives routing: owner of each root vector and how many
	// candidates of that vector remain partitioned (not duplicated). A
	// vector whose candidates were all duplicated needs no communication —
	// that is where TGD/PGD/FGD save bytes on top of balancing load.
	//
	// The map is keyed by the 64-bit vector hash, not the packed vector. A
	// collision merges two vectors into one entry; that is harmless: the
	// owner is hash-derived so it is identical for both, and a merged
	// remaining count can only route an item group to a node that needs it
	// for the other vector — receivers count exact containment, so support
	// counts cannot change.
	type vecEntry struct {
		owner     int
		remaining int
	}
	vecInfo := make(map[uint64]*vecEntry)
	var ownedCands [][]item.Item
	for i, c := range cands {
		ve := vecInfo[plan.vecHashes[i]]
		if ve == nil {
			ve = &vecEntry{owner: owners[i]}
			vecInfo[plan.vecHashes[i]] = ve
		}
		if !dupFlag.get(int32(i)) {
			ve.remaining++
			if owners[i] == self {
				ownedCands = append(ownedCands, c)
			}
		}
	}

	// Per-node state. Owned candidates are counted into per-counter vectors
	// over the shared read-only ownedIndex: wowned[0] by the receiver, whose
	// unit is the item group t'' a peer selected for us, and wowned[1+w] by
	// scan worker w. Duplicated candidates are counted into per-worker
	// vectors over the shared read-only dupIndex. All merge at the scan
	// barrier.
	ownedIndex := itemset.BuildIndex(ownedCands)
	wowned := driver.WorkerVectors(1+W, len(ownedCands))
	ownedClosure := taxonomy.SetsClosure(e.tax, ownedCands)
	recv := groupCounter{counts: wowned[0]}
	xsp := n.Span("exchange")
	cp := n.NewExchange(driver.KData, driver.ItemsApplier(func(items []item.Item) {
		recv.count(ownedClosure, ownedIndex, k, items, st)
	}))

	// Per-worker scan state: a duplicated-table count vector, an owned-group
	// counter and every per-transaction scratch buffer.
	wdup := driver.WorkerVectors(W, len(plan.dupSets))
	workers := make([]hierWorker, W)
	for w := range workers {
		workers[w] = hierWorker{
			dupCounts:   wdup[w],
			own:         groupCounter{counts: wowned[1+w]},
			rootsByDest: make([][]item.Item, nNodes),
			touched:     make([]int, 0, nNodes),
			rootRuns:    make([]rootRun, 0, 16),
		}
	}

	// Duplicated candidates are counted locally, straight from the original
	// transaction's closure (Figures 7/9/11 line (8.1)) — the phase's
	// extension whenever anything is duplicated. The shared dupIndex is
	// read-only; every worker counts into its own vector.
	var dupClosure *taxonomy.Closure
	if len(plan.dupSets) > 0 {
		dupClosure = taxonomy.SetsClosure(e.tax, plan.dupSets)
	}
	err := driver.CountPhase(n.Local(), W, n.ShardObs("count"), st, dupClosure, cp, func(w *driver.Worker, t txn.Transaction) error {
		wk := &workers[w.ID]
		if dupClosure != nil {
			w.Stats.Probes += itemset.Choose(len(w.Ext), k)
			w.Stats.Increments += plan.dupIndex.CountContained(w.Ext, wk.dupCounts, &wk.dupStamps)
		}

		// t': items replaced by their closest-to-bottom large ancestor.
		wk.tPrime = e.replace.ReplaceWithLarge(wk.tPrime[:0], t.Items)
		if len(wk.tPrime) == 0 {
			return nil
		}
		// Distinct roots present with their item multiplicities.
		wk.rootRuns = rootRunsOf(e.tax, wk.rootRuns[:0], wk.tPrime)

		// Enumerate realizable root k-multisets; union the roots each
		// destination needs. vecInfo is shared read-only. The group for this
		// node is counted in place; the others ship to their owners.
		wk.touched = wk.touched[:0]
		wk.multiset = wk.multiset[:0]
		enumerateMultisets(wk.rootRuns, k, wk.multiset, func(mv []item.Item) {
			ve := vecInfo[itemset.Hash(mv)]
			if ve == nil || ve.remaining == 0 {
				return
			}
			if len(wk.rootsByDest[ve.owner]) == 0 {
				wk.touched = append(wk.touched, ve.owner)
			}
			wk.rootsByDest[ve.owner] = append(wk.rootsByDest[ve.owner], mv...)
		})

		for _, dest := range wk.touched {
			roots := item.Dedup(wk.rootsByDest[dest])
			wk.group = wk.group[:0]
			for _, x := range wk.tPrime {
				if item.Contains(roots, e.tax.Root(x)) {
					wk.group = append(wk.group, x)
				}
			}
			wk.rootsByDest[dest] = wk.rootsByDest[dest][:0]
			if dest == self {
				wk.own.count(ownedClosure, ownedIndex, k, wk.group, &w.Stats)
				continue
			}
			w.Stats.ItemsSent += int64(len(wk.group))
			if err := w.Bat.AddItems(dest, wk.group); err != nil {
				return err
			}
		}
		return nil
	})
	xsp.End()
	if err != nil {
		return driver.PassOutcome{}, err
	}
	return driver.PassOutcome{
		Own:        largeOf(ownedCands, driver.MergeWorkerVectors(wowned), n.MinCount()),
		DupSets:    plan.dupSets,
		DupCounts:  driver.MergeWorkerVectors(wdup),
		Duplicated: len(plan.dupSets),
		Fragments:  1,
	}, nil
}

// countReplicated counts a pass whose plan duplicated every candidate:
// NPGM's (§3.1), and a duplicating variant's when all of C_k fits. No item
// group can be of use to another node, so the pass opens no exchange; each
// node counts its local partition and the barrier reduces the counts (the
// paper broadcasts each fragment's L_k^d as it completes; reducing once
// after the last fragment yields the same L_k with one barrier).
//
// The pass is split into plan.fragments memory-sized fragments, and the
// local partition is re-scanned once per fragment — the cost that makes
// NPGM collapse at small minimum support (Figure 14). A scan holds only its
// fragment [lo, hi): with one fragment that is the plan's shared index,
// otherwise the node indexes the fragment itself (nodes move through
// fragments independently) and drops the index before the next one.
// driver.CountTable counts the fragment into that window of every worker
// vector and refuses an index of any other length (ErrCountVectors). Every
// worker counts over the read-only index into its own vector, merged once
// after the last fragment.
func (e *hierEngine) countReplicated(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	cands, plan := e.curCands, e.cur
	// One KeepSet serves both roles, the ancestor keep set and the
	// pre-enumeration membership filter, as one closure.
	member := cumulate.KeepSet(e.tax, cands)
	view := taxonomy.NewView(e.tax, nil, member)
	W := n.Workers()
	wcounts := driver.WorkerVectors(W, len(cands))
	window := make([][]int64, W)
	per := (len(cands) + plan.fragments - 1) / plan.fragments
	for f := 0; f < plan.fragments; f++ {
		lo, hi := f*per, min(f*per+per, len(cands))
		index := plan.dupIndex
		if plan.fragments > 1 {
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
	return driver.PassOutcome{
		DupSets:    cands,
		DupCounts:  driver.MergeWorkerVectors(wcounts),
		Duplicated: len(cands),
		Fragments:  plan.fragments,
	}, nil
}

// granuleNames maps a dupKind to its report-facing name.
var granuleNames = [...]string{"none", "tree", "path", "fine", "all"}

// computeHierPlan derives the H-HPGM family's partition plan for one pass:
// root-vector hashes and owners, the duplication choice, and the
// duplicated-candidate list with its index. Every input is globally
// replicated state (C_k, the pass-1 counts, owners, M), so the result is
// identical on whichever node computes it first — and identical across
// processes in worker mode, where each process computes it once.
//
// NPGM, and a duplicating variant with no budget, replicate every candidate
// whatever C_k holds: that plan has no root vectors, owners or duplication
// flags, only C_k as its duplicated list, its fragment count, and the
// shared index over C_k when one fragment holds it.
func computeHierPlan(m *itemsetMiner, nNodes int, kind dupKind, k int, cands [][]item.Item) *passPlan {
	decision := metrics.PlanDecision{Partitioner: "root-vector-hash", Granule: granuleNames[kind]}
	if kind == dupAll || kind != dupNone && m.cfg.MemoryBudget <= 0 {
		if kind == dupAll {
			decision.Partitioner = "replicated"
		}
		decision.Duplicated = len(cands)
		plan := &passPlan{
			dupSets:   cands,
			fragments: fragmentCount(len(cands), k, m.cfg.MemoryBudget),
			decision:  decision,
		}
		if plan.fragments == 1 {
			plan.dupIndex = itemset.BuildIndex(cands)
		}
		return plan
	}
	vecHashes := make([]uint64, len(cands))
	owners := make([]int, len(cands))
	vecScratch := make([]item.Item, 0, k)
	for i, c := range cands {
		vecScratch = rootVector(m.tax, vecScratch[:0], c)
		h := itemset.Hash(vecScratch)
		vecHashes[i] = h
		owners[i] = int(h % uint64(nNodes))
	}
	dup := selectDuplicates(m, nNodes, kind, k, cands, vecHashes, owners)
	// Duplicated candidates in ascending id order: the layout of every
	// node's count vector and of the coordinator reduce.
	dupSets := make([][]item.Item, 0, dup.count())
	for i, c := range cands {
		if dup.get(int32(i)) {
			dupSets = append(dupSets, c)
		}
	}
	decision.Duplicated = len(dupSets)
	return &passPlan{
		vecHashes: vecHashes,
		owners:    owners,
		dup:       dup,
		dupSets:   dupSets,
		dupIndex:  itemset.BuildIndex(dupSets),
		fragments: 1,
		decision:  decision,
	}
}

// rootVector computes the sorted multiset of roots of an itemset's members,
// appended to dst.
func rootVector(tax *taxonomy.Taxonomy, dst []item.Item, set []item.Item) []item.Item {
	for _, x := range set {
		dst = append(dst, tax.Root(x))
	}
	item.Sort(dst)
	return dst
}

// rootRun is one distinct root present in a transaction with the number of
// transaction items under it — the multiplicity cap for root multisets.
type rootRun struct {
	root  item.Item
	count int
}

// rootRunsOf groups a canonical transaction's items by root, ascending.
func rootRunsOf(tax *taxonomy.Taxonomy, dst []rootRun, items []item.Item) []rootRun {
	for _, x := range items {
		r := tax.Root(x)
		found := false
		for i := range dst {
			if dst[i].root == r {
				dst[i].count++
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, rootRun{root: r, count: 1})
		}
	}
	// Roots must be ascending for canonical multiset keys.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].root > dst[j].root; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}

// enumerateMultisets yields every k-multiset over the runs' roots whose
// per-root multiplicity does not exceed the run count — exactly the root
// vectors some k-subset of the transaction can realize. fn receives a
// scratch slice valid only for the call.
func enumerateMultisets(runs []rootRun, k int, scratch []item.Item, fn func(m []item.Item)) {
	var rec func(idx, left int)
	rec = func(idx, left int) {
		if left == 0 {
			fn(scratch)
			return
		}
		if idx >= len(runs) {
			return
		}
		// Remaining capacity check for an early exit.
		capLeft := 0
		for i := idx; i < len(runs); i++ {
			capLeft += runs[i].count
		}
		if capLeft < left {
			return
		}
		max := runs[idx].count
		if max > left {
			max = left
		}
		for take := 0; take <= max; take++ {
			for i := 0; i < take; i++ {
				scratch = append(scratch, runs[idx].root)
			}
			rec(idx+1, left-take)
			scratch = scratch[:len(scratch)-take]
		}
	}
	rec(0, k)
}
