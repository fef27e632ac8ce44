package core

import (
	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// hierWorker is the routing state one scan worker keeps beside its
// driver.Worker: a duplicated-candidate count vector and every
// per-transaction scratch buffer. Nothing in here is shared, so the scan body
// never synchronizes.
type hierWorker struct {
	dupCounts   []int64
	dupStamps   itemset.Stamps
	tPrime      []item.Item
	group       []item.Item
	multiset    []item.Item
	rootRuns    []rootRun
	rootsByDest [][]item.Item
	touched     []int
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
type hierEngine struct {
	m   *itemsetMiner
	dup dupKind

	// cur is the plan of the pass in flight, computed by plan, consumed by
	// pass. Shared across in-process nodes via candCache.
	cur *passPlan
}

// plan derives the pass's partition plan: root vectors, owners and the
// duplication choice are deterministic on every node; computed once and
// shared (see candCache). The first node goroutine to arrive builds the plan
// across its scan workers — every other node goroutine is blocked on the
// same value. With Config.Adaptive, prev (the broadcast skew hint, identical
// everywhere) escalates the duplication granule of hot taxonomy subtrees.
func (e *hierEngine) plan(n *driver.Node, k int, cands [][]item.Item, prev *metrics.SkewReport) (driver.PlanDecision, error) {
	m := e.m
	psp := n.Span("partition")
	W := n.Workers()
	e.cur = m.cands.hierPlan(k, func() *passPlan {
		return computeHierPlan(m, n.NumNodes(), e.dup, k, cands, W, prev,
			n.BoundaryObs("partition shard").Hook())
	})
	psp.Arg("duplicated", int64(len(e.cur.dupSets)))
	psp.Arg("workers", int64(W))
	psp.End()
	return e.cur.decision, nil
}

func (e *hierEngine) pass(n *driver.Node, k int, cands [][]item.Item, st *metrics.NodeStats) (engineOut, error) {
	m := e.m
	nNodes := n.NumNodes()
	self := n.ID()

	W := n.Workers()
	plan := e.cur
	owners, dupFlag := plan.owners, plan.dup

	// anyPartitioned is false when the plan duplicated every candidate (the
	// no-budget TGD/PGD/FGD case): nothing is owned, so no item group can be
	// of use to any node and the scan skips routing altogether.
	anyPartitioned := len(plan.dupSets) < len(cands)

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
	var vecInfo map[uint64]*vecEntry
	var ownedCands [][]item.Item
	if anyPartitioned {
		vecInfo = make(map[uint64]*vecEntry)
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
	}

	// Per-node state. Owned candidates are counted only by the receiver
	// goroutine during the count phase; duplicated candidates are counted
	// into per-worker vectors (over the shared read-only dupIndex) merged at
	// the scan barrier.
	ownedIndex := itemset.BuildIndexParallel(ownedCands, W)
	ownedCounts := make([]int64, len(ownedCands))
	ownedMember := cumulate.KeepSet(m.tax, ownedCands)
	ownedView := taxonomy.NewView(m.tax, m.largeFlags, ownedMember)
	dupMember := cumulate.KeepSet(m.tax, plan.dupSets)
	dupView := taxonomy.NewView(m.tax, m.largeFlags, dupMember)
	replaceView := taxonomy.NewView(m.tax, m.largeFlags, nil)

	// Receiver: one unit is the item group t'' a peer selected for us;
	// candidates contained in its ancestor closure are counted, covering
	// both the k-itemsets generated from t'' and "all its ancestor
	// candidates" (Figure 5 lines (12)/(16)). Each group offers the owned
	// table C(|t''-closure|, k) probes. The receiver alone touches the owned
	// counts; scan workers only route.
	applyScratch := make([]item.Item, 0, 64)
	var applyStamps itemset.Stamps
	xsp := n.Span("exchange")
	cp := n.NewExchange(driver.KData, driver.ItemsApplier(func(items []item.Item) {
		applyScratch = cumulate.ExtendFiltered(ownedView, ownedMember, applyScratch[:0], items)
		st.Probes += itemset.Choose(len(applyScratch), k)
		st.Increments += ownedIndex.CountContained(applyScratch, 0, int32(len(ownedCands)), ownedCounts, &applyStamps)
	}))

	// Per-worker scan state: a duplicated-table count vector and every
	// per-transaction scratch buffer.
	wdup := driver.WorkerVectors(W, len(plan.dupSets))
	workers := make([]hierWorker, W)
	for w := range workers {
		workers[w] = hierWorker{
			dupCounts:   wdup[w],
			rootsByDest: make([][]item.Item, nNodes),
			touched:     make([]int, 0, nNodes),
			rootRuns:    make([]rootRun, 0, 16),
		}
	}

	// Duplicated candidates are counted locally, straight from the original
	// transaction's closure (Figures 7/9/11 line (8.1)) — the phase's
	// extension whenever anything is duplicated. The shared dupIndex is
	// read-only; every worker counts into its own vector.
	var extendDup func([]item.Item, txn.Transaction) []item.Item
	if len(plan.dupSets) > 0 {
		extendDup = cumulate.FilteredExtension(dupView, dupMember)
	}
	err := driver.CountPhase(m.db, W, n.ShardObs("count"), st, extendDup, cp, func(w *driver.Worker, t txn.Transaction) error {
		wk := &workers[w.ID]
		if extendDup != nil {
			w.Stats.Probes += itemset.Choose(len(w.Ext), k)
			w.Stats.Increments += plan.dupIndex.CountContained(w.Ext, 0, int32(len(wk.dupCounts)), wk.dupCounts, &wk.dupStamps)
		}
		if !anyPartitioned {
			return nil
		}

		// t': items replaced by their closest-to-bottom large ancestor.
		wk.tPrime = replaceView.ReplaceWithLarge(wk.tPrime[:0], t.Items)
		if len(wk.tPrime) == 0 {
			return nil
		}
		// Distinct roots present with their item multiplicities.
		wk.rootRuns = rootRunsOf(m.tax, wk.rootRuns[:0], wk.tPrime)

		// Enumerate realizable root k-multisets; union the roots each
		// destination needs. vecInfo is shared read-only.
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
			for _, r := range mv {
				wk.rootsByDest[ve.owner] = append(wk.rootsByDest[ve.owner], r)
			}
		})

		for _, dest := range wk.touched {
			roots := item.Dedup(wk.rootsByDest[dest])
			wk.group = wk.group[:0]
			for _, x := range wk.tPrime {
				if item.Contains(roots, m.tax.Root(x)) {
					wk.group = append(wk.group, x)
				}
			}
			if dest != self {
				w.Stats.ItemsSent += int64(len(wk.group))
			}
			if err := w.Bat.AddItems(dest, wk.group); err != nil {
				return err
			}
			wk.rootsByDest[dest] = wk.rootsByDest[dest][:0]
		}
		return nil
	})
	xsp.End()
	if err != nil {
		return engineOut{}, err
	}
	dupCounts := driver.MergeWorkerVectors(wdup)

	return engineOut{
		owned:      largeOf(ownedCands, ownedCounts, n.MinCount()),
		dupSets:    plan.dupSets,
		dupCounts:  dupCounts,
		duplicated: len(plan.dupSets),
		fragments:  1,
	}, nil
}

// granuleNames maps a dupKind to its report-facing name.
var granuleNames = [...]string{"none", "tree", "path", "fine"}

func granuleName(kind dupKind) string {
	if int(kind) < len(granuleNames) {
		return granuleNames[kind]
	}
	return "unknown"
}

// computeHierPlan derives the H-HPGM family's partition plan for one pass:
// root-vector hashes and owners sharded across workers, the duplication
// choice, and the duplicated-candidate list with its index. Every input is
// globally replicated state (plus the broadcast skew hint), so the result is
// identical on whichever node computes it first — and identical across
// processes in worker mode, where each process computes it once.
func computeHierPlan(m *itemsetMiner, nNodes int, kind dupKind, k int, cands [][]item.Item, workers int, prev *metrics.SkewReport, hook itemset.Hook) *passPlan {
	vecHashes := make([]uint64, len(cands))
	owners := make([]int, len(cands))
	itemset.ForShards(len(cands), workers, hook, func(w, lo, hi int) {
		vecScratch := make([]item.Item, 0, k)
		for i := lo; i < hi; i++ {
			vecScratch = rootVector(m.tax, vecScratch[:0], cands[i])
			h := itemset.Hash(vecScratch)
			vecHashes[i] = h
			owners[i] = int(h % uint64(nNodes))
		}
	})
	dec := metrics.PlanDecision{
		Partitioner: "root-vector-hash",
		Granule:     granuleName(kind),
		Adaptive:    m.cfg.Adaptive,
	}
	var candKind []dupKind
	if m.cfg.Adaptive {
		candKind = escalateGranules(m, k, kind, cands, owners, prev, &dec)
	}
	dup := selectDuplicates(m, nNodes, kind, k, cands, vecHashes, owners, workers, candKind)
	// Duplicated candidates in ascending id order: the layout of every
	// node's count vector and of the coordinator reduce.
	dupSets := make([][]item.Item, 0, dup.count())
	for i, c := range cands {
		if dup.get(int32(i)) {
			dupSets = append(dupSets, c)
		}
	}
	dec.Duplicated = len(dupSets)
	return &passPlan{
		vecHashes: vecHashes,
		owners:    owners,
		dup:       dup,
		dupSets:   dupSets,
		dupIndex:  itemset.BuildIndexParallel(dupSets, workers),
		decision:  dec,
	}
}

// escalateAt and jumpAt resolve the adaptive thresholds' zero values to their
// defaults.
func escalateAt(c *Config) float64 {
	if c.EscalateAt <= 0 {
		return 1.25
	}
	return c.EscalateAt
}

func jumpAt(c *Config) float64 {
	if c.JumpAt <= 0 {
		return 4.0
	}
	return c.JumpAt
}

// escalateGranules advances the adaptive escalation state for pass k and
// returns the per-candidate effective granule (nil when nothing is escalated
// yet, which makes selectDuplicates take the static path bit-for-bit).
//
// Decision rule, applied at most once per pass: when the previous complete
// skew snapshot reports a barrier-wait max/mean ratio at or above EscalateAt,
// the taxonomy roots of the candidates the straggler owns this pass are "hot"
// and their granule steps up one level (H-HPGM -> TGD -> PGD -> FGD), or
// straight to FGD at or above JumpAt. Escalations are sticky: a calmed
// subtree keeps its level, so the plan never oscillates.
//
// Every input is identical on all nodes — prev is the coordinator's KPlan
// broadcast, cands/owners/itemCounts are replicated state — so the escalation
// state and the resulting plan evolve identically everywhere.
func escalateGranules(m *itemsetMiner, k int, base dupKind, cands [][]item.Item, owners []int, prev *metrics.SkewReport, dec *metrics.PlanDecision) []dupKind {
	esc := &m.cands.esc
	if prev != nil && esc.upAt < k && prev.Straggler >= 0 && prev.BarrierWaitMaxOverMean >= escalateAt(&m.cfg) {
		esc.upAt = k
		if len(esc.levels) == 0 {
			esc.levels = make([]dupKind, m.tax.NumItems())
		}
		jump := prev.BarrierWaitMaxOverMean >= jumpAt(&m.cfg)
		for i, c := range cands {
			if owners[i] != prev.Straggler {
				continue
			}
			for _, x := range c {
				r := m.tax.Root(x)
				cur := esc.levels[r]
				if cur < base {
					cur = base
				}
				next := cur + 1
				if jump || next > dupFine {
					next = dupFine
				}
				if next > esc.levels[r] {
					esc.levels[r] = next
				}
			}
		}
	}
	var candKind []dupKind
	for r, lv := range esc.levels {
		if lv <= base {
			continue
		}
		dec.Escalations = append(dec.Escalations, metrics.Escalation{Root: r, Granule: granuleName(lv)})
		if candKind == nil {
			candKind = make([]dupKind, len(cands))
			for i := range candKind {
				candKind[i] = base
			}
		}
		for i, c := range cands {
			for _, x := range c {
				if int(m.tax.Root(x)) == r && lv > candKind[i] {
					candKind[i] = lv
					break
				}
			}
		}
	}
	return candKind
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
