package fpg

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// fpgMiner is the pattern-growth half of a node: the driver.Miner that plugs
// the generalized FP-Growth engine into the shared-nothing runtime. One
// instance per node; the runtime calls its hooks from the node goroutine in
// protocol order.
//
// The whole pattern-growth phase maps onto a single driver pass (k = 2):
// Generate(2) reports the number of per-suffix-item tasks, CountPass(2)
// builds the local FP-tree forest, ships conditional pattern bases to their
// owners (KCondBase) and mines every owned suffix task, and the pass barrier
// then merges ALL frequent itemsets of size >= 2 at once. Generate(3)
// returns 0, ending the run on every node identically.
type fpgMiner struct {
	tax *taxonomy.Taxonomy
	db  txn.Scanner
	cfg Config

	// Global mining state, identical on every node after the pass-1 barrier.
	itemCounts []int64     // global pass-1 closure counts per item
	rank       []int32     // item -> frequency rank, -1 when not large
	itemAt     []item.Item // frequency rank -> item
	numLarge   int
	numNodes   int
	nodeID     int

	// localCounts is this node's own pass-1 vector until FinishPass1 sums
	// the large items' entries into forestNodes, the forest arena's bound.
	localCounts []int64
	forestNodes int64

	// bases[q] is the conditional pattern base of owned suffix rank
	// id + q*NumNodes as the bytes received: runs of consecutive checked
	// units, appended by the cond-base exchange receiver in arrival order.
	bases [][][]byte

	// The pass-2 barrier, which resolves every pattern size at once: the
	// merged sets are split into per-size levels, each in canonical order.
	// Closure support is monotone and subsets of ancestor-free sets are
	// ancestor-free, so the frequent sizes are contiguous from 2. Own is this
	// node's mined share (all sizes mixed).
	driver.LevelBarrier
}

func newFpgMiner(tax *taxonomy.Taxonomy, db txn.Scanner, cfg Config) *fpgMiner {
	return &fpgMiner{tax: tax, db: db, cfg: cfg}
}

func (m *fpgMiner) LocalSize() int { return m.db.Len() }

func (m *fpgMiner) NumItems() int { return m.tax.NumItems() }

// CountPass1 counts every item and all its ancestors over the local
// partition — the Cumulate family's pass 1, which is what fixes the frequency
// order from the same vector the candidate engines use. The coordinator's
// reduce sums the peers into the returned slice, so the forest bound is taken
// from a copy.
func (m *fpgMiner) CountPass1(n *driver.Node, st *metrics.NodeStats) ([]int64, error) {
	counts, err := driver.CountItems(m.tax, m.db, n.Workers(), n.ShardObs("scan"), st)
	m.localCounts = slices.Clone(counts)
	return counts, err
}

// FinishPass1 records F_1 and derives the global frequency order: large
// items ranked by (closure count descending, item id ascending). The order
// is a pure function of the broadcast count vector, so every node derives
// the identical ranking — the root of the engine's bit-identity at any node
// and worker count.
func (m *fpgMiner) FinishPass1(n *driver.Node, global []int64) (int, error) {
	m.itemCounts = global
	m.rank = make([]int32, m.tax.NumItems())
	for i := range m.rank {
		m.rank[i] = -1
	}
	l1 := m.FinishItems(n, global)
	for _, c := range l1 {
		m.itemAt = append(m.itemAt, c.Items[0])
	}
	sort.Slice(m.itemAt, func(a, b int) bool {
		ia, ib := m.itemAt[a], m.itemAt[b]
		if global[ia] != global[ib] {
			return global[ia] > global[ib]
		}
		return ia < ib
	})
	for r, it := range m.itemAt {
		m.rank[it] = int32(r)
		// Every forest node is made by inserting one large item of one local
		// transaction, so these counts add up to at least the node count.
		m.forestNodes += m.localCounts[it]
	}
	m.localCounts = nil
	m.numLarge = len(m.itemAt)
	return len(l1), nil
}

// Generate reports the pattern-growth task count for the single growth pass:
// one task per suffix rank 1..numLarge-1 (rank 0's prefix paths are always
// empty). Returning 0 — fewer than two large items, or k >= 3 — ends the run
// identically on every node.
func (m *fpgMiner) Generate(_ *driver.Node, k int) (int, error) {
	if k != 2 {
		return 0, nil
	}
	if m.numLarge < 2 {
		return 0, nil
	}
	return m.numLarge - 1, nil
}

// PlanPass records the static suffix-task assignment: suffix rank r is mined
// by node r mod N. Frequency ranks of hot items are low and the modulo
// stripes them across nodes, so the heaviest conditional trees spread evenly
// without any skew feedback.
func (m *fpgMiner) PlanPass(n *driver.Node, k int) (driver.PlanDecision, error) {
	m.numNodes = n.NumNodes()
	m.nodeID = n.ID()
	return driver.PlanDecision{
		Partitioner: "suffix-rank-mod",
		Granule:     "none",
		Candidates:  m.numLarge - 1,
	}, nil
}

// conflicts reports whether two items are in the ancestor relation (either
// direction) — the pairs Cumulate prunes from C_2, which pattern growth must
// exclude from every grown set.
func (m *fpgMiner) conflicts(a, b item.Item) bool {
	return m.tax.IsAncestor(a, b) || m.tax.IsAncestor(b, a)
}

// CountPass runs the entire pattern-growth phase: build the local FP-tree
// forest, ship every suffix rank's conditional pattern base to its owner
// through the KCondBase exchange, then mine the owned suffix tasks across
// Workers. The outcome is this node's complete set of frequent itemsets of
// size >= 2 with exact global counts (bases are global once exchanged, so no
// replicated count vectors are needed).
func (m *fpgMiner) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	if k != 2 {
		return driver.PassOutcome{}, fmt.Errorf("fpg: unexpected pass %d", k)
	}
	forest, err := m.buildForest(n, st)
	if err != nil {
		return driver.PassOutcome{}, err
	}

	shipStart := time.Now()
	slots := 0
	if n.ID() < m.numLarge {
		slots = (m.numLarge-1-n.ID())/m.numNodes + 1
	}
	m.bases = make([][][]byte, slots)
	ex := n.NewExchange(driver.KCondBase, m.applyBases)
	shipErr := m.shipBases(n, ex, forest, st)
	finErr := ex.Finish()
	st.ScanTime += time.Since(shipStart)
	if shipErr != nil {
		return driver.PassOutcome{}, shipErr
	}
	if finErr != nil {
		return driver.PassOutcome{}, finErr
	}
	forest = nil

	if err := m.mineOwned(n, st); err != nil {
		return driver.PassOutcome{}, err
	}
	m.bases = nil

	return driver.PassOutcome{Owned: m.EncodeOwn(n)}, nil
}

// buildForest builds one FP-tree per scan worker over the ancestor-closure
// of the local partition, restricted to large items and mapped to frequency
// ranks. The trees are never merged: conditional-base extraction walks a
// rank's header chain in every tree, and counts are exact sums either way.
// Each worker's arena is allocated once, at its share of the pass-1 bound;
// with one worker the bound is exact and the arena never grows.
func (m *fpgMiner) buildForest(n *driver.Node, st *metrics.NodeStats) ([]*fpTree, error) {
	W := n.Workers()
	sp := n.Span("build-forest")
	defer sp.End()
	trees := make([]*fpTree, W)
	for w := range trees {
		trees[w] = newFPTree(m.numLarge, int((m.forestNodes+int64(W)-1)/int64(W))+1)
	}
	wranks := make([][]item.Item, W)
	err := driver.CountPhase(m.db, W, n.ShardObs("build"), st,
		func(dst []item.Item, t txn.Transaction) []item.Item { return m.tax.ExtendTransaction(dst, t.Items) },
		nil,
		func(w *driver.Worker, _ txn.Transaction) error {
			rs := wranks[w.ID][:0]
			for _, x := range w.Ext {
				if r := m.rank[x]; r >= 0 {
					rs = append(rs, item.Item(r))
				}
			}
			item.Sort(rs) // ascending rank = frequency-descending item order
			wranks[w.ID] = rs
			trees[w.ID].add(rs, 1)
			return nil
		})
	if err != nil {
		return nil, err
	}
	var nodes int64
	for _, t := range trees {
		nodes += int64(len(t.nodes) - 1)
	}
	sp.Arg("tree-nodes", nodes)
	return trees, nil
}

// shipBases extracts every suffix rank's conditional pattern base from the
// local forest and routes it to the rank's owner through the exchange,
// sharded over Workers. The taxonomy filter runs at the sender: prefix items
// in the ancestor relation with the suffix item can never co-occur with it
// in a frequent set, so they are dropped before they cost wire bytes.
func (m *fpgMiner) shipBases(n *driver.Node, ex *driver.Exchange, forest []*fpTree, st *metrics.NodeStats) error {
	sp := n.Span("ship-bases")
	defer sp.End()
	numTasks := m.numLarge - 1
	W := max(min(n.Workers(), numTasks), 1)
	wsent := make([]int64, W)
	err := itemset.Fan("ship", W, n.ShardObs("ship").Hook(), func(w int) error {
		b := ex.NewBatcher()
		var unit []byte
		var climb []item.Item
		for t := numTasks * w / W; t < numTasks*(w+1)/W; t++ {
			r := item.Item(t + 1) // suffix ranks start at 1
			x := m.itemAt[r]
			dest := int(r) % m.numNodes
			skip := func(pr item.Item) bool { return m.conflicts(m.itemAt[pr], x) }
			var err error
			climb, err = extractPaths(forest, r, skip, climb, func(path []item.Item, count int64) error {
				unit = wire.AppendUvarint(unit[:0], uint64(r))
				unit = wire.AppendUvarint(unit, uint64(count))
				unit = wire.AppendItems(unit, path)
				if dest != n.ID() {
					wsent[w] += int64(len(path))
				}
				return b.AddRaw(dest, unit)
			})
			if err != nil {
				return err
			}
		}
		return b.FlushAll()
	})
	for _, it := range wsent {
		st.ItemsSent += it
	}
	return err
}

// applyBases is the cond-base exchange's receive callback. It checks every
// (suffix rank, count, path) unit of a batch, copies the batch once (the
// exchange releases every batch once apply returns) and appends each run of
// consecutive units of one owned slot to that slot as a sub-slice of the
// copy; units before a rejected one are kept. Runs on the exchange receiver
// goroutine only, which has exclusive access to m.bases until Finish returns.
func (m *fpgMiner) applyBases(batch []byte) (int64, error) {
	b := slices.Clone(batch)
	var items int64
	var err error
	path := make([]item.Item, 0, 32)
	d := wire.NewDec(b)
	q, start, end := -1, 0, 0 // the open run: slot q's units b[start:end]
	keep := func() {
		if q >= 0 {
			m.bases[q] = append(m.bases[q], b[start:end])
		}
	}
	for d.More() {
		r := d.Int()
		d.I64() // the count, decoded again by mineTask
		if path = d.Items(path[:0]); d.Err() != nil {
			break
		}
		items += int64(len(path))
		slot := r / m.numNodes
		if r >= m.numLarge || r%m.numNodes != m.nodeID || slot >= len(m.bases) {
			err = fmt.Errorf("fpg: cond base for foreign rank %d", r)
			break
		}
		if slot != q {
			keep()
			q, start = slot, end
		}
		end = len(b) - d.Len()
	}
	keep()
	if err == nil {
		err = d.Err()
	}
	return items, err
}

// baseUnits decodes owned slot q's units in arrival order, handing each
// path and count to add (path is scratch, returned grown). applyBases
// checked every unit, so the decode cannot fail.
func (m *fpgMiner) baseUnits(q int, path []item.Item, add func(path []item.Item, count int64)) []item.Item {
	for _, run := range m.bases[q] {
		d := wire.NewDec(run)
		for d.More() {
			d.Int() // the suffix rank, which the slot names
			count := d.I64()
			path = d.Items(path[:0])
			add(path, count)
		}
	}
	return path
}

// mineOwned mines every owned suffix task across Workers. Tasks are claimed
// dynamically (conditional tree sizes are highly skewed — a static split
// would strand workers), but each task's output lands in its own slot and
// the slots are concatenated in rank order, so the result is independent of
// scheduling.
func (m *fpgMiner) mineOwned(n *driver.Node, st *metrics.NodeStats) error {
	sp := n.Span("mine")
	defer sp.End()
	var tasks []item.Item
	start := n.ID()
	if start == 0 {
		start = m.numNodes
	}
	for r := start; r < m.numLarge; r += m.numNodes {
		tasks = append(tasks, item.Item(r))
	}
	results := make([][]itemset.Counted, len(tasks))
	W := max(min(n.Workers(), len(tasks)), 1)
	minCount := n.MinCount()
	var next atomic.Int64
	var incs atomic.Int64
	err := itemset.Fan("mine", W, n.BoundaryObs("mine shard").Hook(), func(int) error {
		sc := newMineScratch(m.numLarge)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				break
			}
			results[i] = m.mineTask(tasks[i], minCount, sc)
		}
		incs.Add(sc.increments)
		return nil
	})
	if err != nil {
		return err
	}
	st.Increments += incs.Load()
	m.Own = m.Own[:0]
	for _, res := range results {
		m.Own = append(m.Own, res...)
	}
	sp.Arg("tasks", int64(len(tasks)))
	sp.Arg("patterns", int64(len(m.Own)))
	return nil
}

// mineTask grows every frequent pattern whose highest-frequency-rank item is
// the suffix rank r, from r's (now global) conditional pattern base.
func (m *fpgMiner) mineTask(r item.Item, minCount int64, sc *mineScratch) []itemset.Counted {
	q := int(r) / m.numNodes
	if len(m.bases[q]) == 0 {
		return nil
	}
	t := sc.getTree(m.numLarge)
	sc.climb = m.baseUnits(q, sc.climb, t.add)
	var out []itemset.Counted
	m.grow([]*fpTree{t}, []item.Item{m.itemAt[r]}, 2, minCount, sc, &out)
	sc.putTree(t)
	return out
}

// grow is the conditional pattern-base recursion: tally the trees' per-rank
// totals, emit suffix+item for every rank at or above minCount, and recurse
// into each survivor's conditional tree. size is the size of the sets
// emitted at this level; suffix holds size-1 items. The base was filtered
// against every suffix item as it was added, so no tree path contains an
// item in the ancestor relation with any suffix item.
func (m *fpgMiner) grow(trees []*fpTree, suffix []item.Item, size int, minCount int64, sc *mineScratch, out *[]itemset.Counted) {
	touched := sc.touched[:0]
	for _, t := range trees {
		for _, r := range t.present {
			var sum int64
			for ni := t.heads[r]; ni != -1; ni = t.nodes[ni].next {
				sum += t.nodes[ni].count
				sc.increments++
			}
			if sc.tally[r] == 0 && sum > 0 {
				touched = append(touched, r)
			}
			sc.tally[r] += sum
		}
	}
	sc.touched = touched[:0] // consumed below; recursion may reuse the buffer

	var surv []rankCount
	for _, r := range touched {
		if sc.tally[r] >= minCount {
			surv = append(surv, rankCount{rank: r, count: sc.tally[r]})
		}
		sc.tally[r] = 0
	}
	if len(surv) == 0 {
		return
	}
	sort.Slice(surv, func(a, b int) bool { return surv[a].rank < surv[b].rank })

	for _, s := range surv {
		r, x := s.rank, m.itemAt[s.rank]
		set := make([]item.Item, 0, size)
		set = append(set, suffix...)
		set = append(set, x)
		item.Sort(set)
		*out = append(*out, itemset.Counted{Items: set, Count: s.count})

		if m.cfg.MaxK > 0 && size >= m.cfg.MaxK {
			continue
		}
		// sub comes off the free list, so it is never one of the trees being
		// walked: the extracted paths go straight into it.
		sub := sc.getTree(m.numLarge)
		skip := func(pr item.Item) bool { return m.conflicts(m.itemAt[pr], x) }
		sc.climb, _ = extractPaths(trees, r, skip, sc.climb, func(path []item.Item, count int64) error {
			sub.add(path, count)
			return nil
		})
		if len(sub.nodes) > 1 {
			m.grow([]*fpTree{sub}, set, size+1, minCount, sc, out)
		}
		sc.putTree(sub)
	}
}

// rankCount pairs a surviving rank with its exact tally.
type rankCount struct {
	rank  item.Item
	count int64
}
