package fpg

import (
	"cmp"
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
	// The closure's slot table is the rank vector and each slot emits its
	// rank, so a transaction comes out as its large closure items in
	// ascending rank (frequency-descending) order with no sort.
	ranks := make([]item.Item, m.numLarge)
	for r := range ranks {
		ranks[r] = item.Item(r)
	}
	err := driver.CountPhase(m.db, W, n.ShardObs("build"), st, taxonomy.NewClosure(m.tax, m.rank, ranks), nil,
		func(w *driver.Worker, _ txn.Transaction) error {
			trees[w.ID].add(w.Ext, 1)
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
// in a frequent set, so they are dropped before they cost wire bytes. Each
// prefix rank's verdict is taxonomy-checked once per suffix: verdict[pr] is
// 2*r plus 1 for a conflict, so a mark left by an earlier suffix reads as
// unknown and the vector never needs clearing.
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
		verdict := make([]int32, m.numLarge)
		for t := numTasks * w / W; t < numTasks*(w+1)/W; t++ {
			r := item.Item(t + 1) // suffix ranks start at 1
			x := m.itemAt[r]
			dest := int(r) % m.numNodes
			skip := func(pr item.Item) bool {
				v := verdict[pr]
				if v>>1 != int32(r) {
					v = int32(r) << 1
					if m.conflicts(m.itemAt[pr], x) {
						v |= 1
					}
					verdict[pr] = v
				}
				return v&1 == 1
			}
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
// (suffix rank, count, path) unit of a batch — rank owned, count within
// [1, the suffix item's support], path canonical and below the rank —
// copies the batch once (the exchange releases every batch once apply
// returns) and appends each run of consecutive units of one owned slot to
// that slot as a sub-slice of the copy; units before a rejected one are
// kept. Runs on the exchange receiver goroutine only, which has exclusive
// access to m.bases until Finish returns.
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
		count := d.I64() // decoded again by mineTask
		if path = d.Items(path[:0]); d.Err() != nil {
			break
		}
		items += int64(len(path))
		slot := r / m.numNodes
		if r >= m.numLarge || r%m.numNodes != m.nodeID || slot >= len(m.bases) {
			err = fmt.Errorf("fpg: cond base for foreign rank %d", r)
			break
		}
		// A unit is one tree node's count: at least 1, and at most the
		// suffix item's global support.
		if sup := m.itemCounts[m.itemAt[r]]; count < 1 || count > sup {
			err = fmt.Errorf("fpg: cond base count %d for rank %d outside [1, %d]", count, r, sup)
			break
		}
		// A prefix path holds only ranks below its suffix rank.
		if len(path) > 0 && int(path[len(path)-1]) >= r {
			err = fmt.Errorf("fpg: cond base path for rank %d holds rank %d", r, path[len(path)-1])
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
// scheduling. Every task is timed, and the mine span names the slowest one
// (slowest-rank, slowest-us): the suffix rank that held this node's workers
// longest, and so the one most likely to gate the pass barrier.
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
	slowest := make([]taskTime, W)
	for w := range slowest {
		slowest[w].d = -1 // a worker that claimed no task never wins
	}
	err := itemset.Fan("mine", W, n.BoundaryObs("mine shard").Hook(), func(w int) error {
		sc := newMineScratch(m.numLarge)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				break
			}
			t0 := time.Now()
			results[i] = m.mineTask(tasks[i], minCount, sc)
			if d := time.Since(t0); d > slowest[w].d {
				slowest[w] = taskTime{tasks[i], d}
			}
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
	if len(tasks) > 0 {
		slow := slices.MaxFunc(slowest, func(a, b taskTime) int { return cmp.Compare(a.d, b.d) })
		sp.Arg("slowest-rank", int64(slow.rank))
		sp.Arg("slowest-us", slow.d.Microseconds())
	}
	return nil
}

// taskTime is one suffix task's mining time.
type taskTime struct {
	rank item.Item
	d    time.Duration
}

// mineTask grows every frequent pattern whose highest-frequency-rank item is
// the suffix rank r, from r's (now global) conditional pattern base.
func (m *fpgMiner) mineTask(r item.Item, minCount int64, sc *mineScratch) []itemset.Counted {
	q := int(r) / m.numNodes
	if len(m.bases[q]) == 0 {
		return nil
	}
	t, surv := m.baseTree(q, minCount, !m.atMaxK(2), sc)
	var out []itemset.Counted
	m.grow(t, surv, []item.Item{m.itemAt[r]}, 2, minCount, sc, &out)
	if t != nil {
		sc.putTree(t)
	}
	return out
}

// baseTree is condTree for owned slot q's received base: its bytes are
// decoded twice. The first pass tallies every prefix rank, which yields the
// size-2 survivors; the second, only when build is set, inserts each path
// cut to those survivors. The sender already dropped the ranks in the
// ancestor relation with the suffix item. applyBases bounds every count to
// [1, the suffix item's support], so a rank's tally is positive once it is
// touched and cannot overflow.
func (m *fpgMiner) baseTree(q int, minCount int64, build bool, sc *mineScratch) (*fpTree, []rankCount) {
	touched := sc.touched[:0]
	sc.climb = m.baseUnits(q, sc.climb, func(path []item.Item, count int64) {
		sc.increments++
		for _, pr := range path {
			if sc.tally[pr] == 0 {
				touched = append(touched, pr)
			}
			sc.tally[pr] += count
		}
	})
	sc.touched = touched
	surv := sc.survivors(2, minCount)
	var t *fpTree
	if build && len(surv) > 0 {
		t = sc.getTree(m.numLarge)
		sc.climb = m.baseUnits(q, sc.climb, func(path []item.Item, count int64) {
			keep := path[:0]
			for _, pr := range path {
				if sc.tally[pr] >= minCount {
					keep = append(keep, pr)
				}
			}
			t.add(keep, count)
		})
	}
	sc.clearTally()
	return t, surv
}

// atMaxK reports whether sets of the given size are the longest MaxK allows.
func (m *fpgMiner) atMaxK(size int) bool {
	return m.cfg.MaxK > 0 && size >= m.cfg.MaxK
}

// grow is the conditional pattern-base recursion. surv holds t's ranks with
// their exact totals, rank-ascending — every rank in t, since t was built
// from frequent ranks only. grow emits suffix+item for each survivor and
// recurses into the survivor's conditional tree. size is the size of the sets
// emitted at this level; suffix holds size-1 items. At the MaxK level t is
// nil: the sets are emitted from surv alone. Every tree path was filtered
// against every suffix item as it was built, so none holds an item in the
// ancestor relation with a suffix item.
func (m *fpgMiner) grow(t *fpTree, surv []rankCount, suffix []item.Item, size int, minCount int64, sc *mineScratch, out *[]itemset.Counted) {
	for _, s := range surv {
		set := make([]item.Item, 0, size)
		set = append(set, suffix...)
		set = append(set, m.itemAt[s.rank])
		item.Sort(set)
		*out = append(*out, itemset.Counted{Items: set, Count: s.count})

		if m.atMaxK(size) {
			continue
		}
		sub, next := m.condTree(t, s.rank, minCount, size+1, !m.atMaxK(size+1), sc)
		m.grow(sub, next, set, size+1, minCount, sc, out)
		if sub != nil {
			sc.putTree(sub)
		}
	}
}

// condTree is FP-Growth's tally-then-insert step: it returns rank r's
// conditional tree in t and that tree's survivors, the ranks whose total
// reaches minCount, rank-ascending with their totals (in sc's buffer for
// depth, valid until the next call at that depth). Climb A walks r's header
// chain and adds each node's count to every prefix rank; a rank's first touch
// runs the one taxonomy check, and a rank in the ancestor relation with r's
// item is never tallied. Climb B, only when build is set, inserts each prefix
// path cut to the survivors into a tree from sc's free list, so its per-rank
// totals are exactly the survivors' counts. The tree is nil when build is
// unset or nothing survives.
func (m *fpgMiner) condTree(t *fpTree, r item.Item, minCount int64, depth int, build bool, sc *mineScratch) (*fpTree, []rankCount) {
	x := m.itemAt[r]
	touched := sc.touched[:0]
	for ni := t.heads[r]; ni != -1; ni = t.nodes[ni].next {
		c := t.nodes[ni].count
		sc.increments++
		for p := t.nodes[ni].parent; p > 0; p = t.nodes[p].parent {
			pr := t.nodes[p].rank
			switch v := sc.tally[pr]; {
			case v > 0:
				sc.tally[pr] = v + c
			case v == 0:
				touched = append(touched, pr)
				if m.conflicts(m.itemAt[pr], x) {
					sc.tally[pr] = -1 // never tallied, never survives
				} else {
					sc.tally[pr] = c
				}
			}
		}
	}
	sc.touched = touched
	surv := sc.survivors(depth, minCount)
	var sub *fpTree
	if build && len(surv) > 0 {
		sub = sc.getTree(m.numLarge)
		skip := func(pr item.Item) bool { return sc.tally[pr] < minCount }
		sc.climb, _ = extractPaths([]*fpTree{t}, r, skip, sc.climb, func(path []item.Item, count int64) error {
			sub.add(path, count)
			return nil
		})
	}
	sc.clearTally()
	return sub, surv
}

// rankCount pairs a surviving rank with its exact tally.
type rankCount struct {
	rank  item.Item
	count int64
}
