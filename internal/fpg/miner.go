package fpg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	cfg Config

	// Global mining state, identical on every node after the pass-1 barrier.
	itemCounts []int64     // global pass-1 closure counts per item
	rank       []int32     // item -> frequency rank, -1 when not large
	itemAt     []item.Item // frequency rank -> item
	numLarge   int
	numNodes   int
	nodeID     int

	// forestNodes bounds the node count of the local forest, the arena's
	// size: FinishPass1 sums the large items' entries of this node's own
	// pass-1 vector.
	forestNodes int64

	// conf[r] lists, ascending, the ranks below r whose items are in the
	// ancestor relation with r's item: the ranks the cond-base walk drops
	// from r's prefix paths. Replicated, like the order it is derived from.
	conf [][]item.Item

	// bases[q] is the conditional pattern base of owned suffix rank
	// q*NumNodes + id as runs of unit bytes: each peer run the cond-base
	// exchange receiver checked, in arrival order, then this node's own
	// runs, in worker order.
	bases [][][]byte

	// own is this node's mined share of the growth pass, all sizes mixed; the
	// pass barrier splits the merged sets into per-size levels. Closure
	// support is monotone and subsets of ancestor-free sets are
	// ancestor-free, so the frequent sizes are contiguous from 2.
	own []itemset.Counted
}

// ErrSupportTooLarge is FinishPass1's error for a large item whose global
// closure count does not fit a tree node's uint32 count.
var ErrSupportTooLarge = errors.New("fpg: an item's support exceeds an FP-tree node's count range")

func newFpgMiner(tax *taxonomy.Taxonomy, cfg Config) *fpgMiner {
	return &fpgMiner{tax: tax, cfg: cfg}
}

// FinishPass1 derives the global frequency order from F_1, out of the same
// pass-1 closure counts the candidate engines use: large items ranked by
// (closure count descending, item id ascending). The order is a pure function
// of the broadcast count vector, so every node derives the identical ranking
// — the root of the engine's bit-identity at any node and worker count. The
// node's own vector, local, bounds its forest. No tree node counts more than
// a large item's global count, so that count must fit a node's uint32
// (ErrSupportTooLarge).
func (m *fpgMiner) FinishPass1(_ *driver.Node, local, global []int64, l1 []itemset.Counted) error {
	m.itemCounts = global
	m.rank = make([]int32, m.tax.NumItems())
	for i := range m.rank {
		m.rank[i] = -1
	}
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
		if global[it] > math.MaxUint32 {
			return fmt.Errorf("%w: item %d counts %d", ErrSupportTooLarge, it, global[it])
		}
		m.rank[it] = int32(r)
		// Every forest node is made by inserting one large item of one local
		// transaction, so these counts add up to at least the node count.
		m.forestNodes += local[it]
	}
	m.numLarge = len(m.itemAt)
	m.conf = conflictLists(m.tax, m.itemAt, m.rank)
	return nil
}

// conflictLists returns conf (see fpgMiner) for the frequency order itemAt,
// whose inverse is rank. Every ancestor of a large item is large, since
// closure counts only grow up the taxonomy, so each pair in the relation is
// found once, on the ancestor chain of its lower item.
func conflictLists(tax *taxonomy.Taxonomy, itemAt []item.Item, rank []int32) [][]item.Item {
	conf := make([][]item.Item, len(itemAt))
	for r, x := range itemAt {
		for a := tax.Parent(x); a != item.None; a = tax.Parent(a) {
			lo, hi := min(item.Item(r), item.Item(rank[a])), max(item.Item(r), item.Item(rank[a]))
			conf[hi] = append(conf[hi], lo)
		}
	}
	for _, c := range conf {
		slices.Sort(c)
	}
	return conf
}

// Generate reports the pattern-growth task count for the single growth pass:
// one task per suffix rank 1..numLarge-1 (rank 0's prefix paths are always
// empty). Returning 0 — fewer than two large items, or k >= 3 — ends the run
// identically on every node.
func (m *fpgMiner) Generate(_ *driver.Node, k int, _ []itemset.Counted) (int, error) {
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
	return driver.PlanDecision{Partitioner: "suffix-rank-mod", Granule: "none"}, nil
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

	if err := m.exchangeBases(n, forest, st); err != nil {
		return driver.PassOutcome{}, err
	}
	forest = nil

	if err := m.mineOwned(n, st); err != nil {
		return driver.PassOutcome{}, err
	}
	m.bases = nil

	return driver.PassOutcome{Own: m.own}, nil
}

// exchangeBases runs the cond-base exchange: it ships the bases in the local
// forest to their owners while it receives this node's owned slots into
// m.bases, then adds the runs the walkers kept for this node's own ranks.
func (m *fpgMiner) exchangeBases(n *driver.Node, forest []*fpTree, st *metrics.NodeStats) error {
	start := time.Now()
	slots := 0
	if n.ID() < m.numLarge {
		slots = (m.numLarge-1-n.ID())/m.numNodes + 1
	}
	m.bases = make([][][]byte, slots)
	ex := n.NewExchange(driver.KCondBase, m.applyBases)
	walkers, shipErr := m.shipBases(n, ex, forest, st)
	finErr := ex.Finish()
	for _, w := range walkers { // the receiver is done with m.bases
		for _, c := range w.own {
			for d := wire.NewDec(c); d.More(); {
				q := d.Int()
				m.bases[q] = append(m.bases[q], d.Bytes())
			}
		}
	}
	st.ScanTime += time.Since(start)
	if shipErr != nil {
		return shipErr
	}
	return finErr
}

// buildForest builds one FP-tree per scan worker over the ancestor-closure
// of the local partition, restricted to large items and mapped to frequency
// ranks. The trees are never merged: each is walked for its conditional
// bases (shipBases), and counts are exact sums either way.
// Each worker's arena is allocated once, at its share of the pass-1 bound;
// with one worker the bound is exact and the arena never grows. The trees
// carry no climb links: the walk keeps its own stack. The span's arena-bytes
// arg is the arenas' capacity in bytes.
func (m *fpgMiner) buildForest(n *driver.Node, st *metrics.NodeStats) ([]*fpTree, error) {
	W := n.Workers()
	sp := n.Span("build-forest")
	defer sp.End()
	trees := make([]*fpTree, W)
	for w := range trees {
		trees[w] = newForestTree(int((m.forestNodes+int64(W)-1)/int64(W)) + 1)
	}
	// The closure's slot table is the rank vector and each slot emits its
	// rank, so a transaction comes out as its large closure items in
	// ascending rank (frequency-descending) order with no sort.
	ranks := make([]item.Item, m.numLarge)
	for r := range ranks {
		ranks[r] = item.Item(r)
	}
	err := driver.CountPhase(n.Local(), W, n.ShardObs("build"), st, taxonomy.NewClosure(m.tax, m.rank, ranks), nil,
		func(w *driver.Worker, _ txn.Transaction) error {
			trees[w.ID].add(w.Ext, 1)
			return nil
		})
	if err != nil {
		return nil, err
	}
	var nodes, arena int64
	for _, t := range trees {
		nodes += int64(len(t.nodes) - 1)
		arena += t.arenaBytes()
	}
	sp.Arg("tree-nodes", nodes)
	sp.Arg("arena-bytes", arena)
	return trees, nil
}

// stageBytes is the size of a walker's per-rank stage: the units of one
// suffix rank gathered before they go to its owner as one run.
const stageBytes = 512

// shipBases routes every suffix rank's conditional pattern base in the local
// forest to the rank's owner, one walker per forest tree (see baseWalker),
// and returns the walkers. Its span counts the units, runs and run bytes of
// all runs, own runs included.
func (m *fpgMiner) shipBases(n *driver.Node, ex *driver.Exchange, forest []*fpTree, st *metrics.NodeStats) ([]*baseWalker, error) {
	sp := n.Span("ship-bases")
	defer sp.End()
	walkers := make([]*baseWalker, len(forest))
	for w := range walkers {
		walkers[w] = m.newBaseWalker(ex.NewBatcher())
	}
	err := itemset.Fan("ship", len(forest), n.ShardObs("ship").Hook(), func(w int) error {
		return walkers[w].walk(forest[w])
	})
	var units, runs, bytes int64
	for _, w := range walkers {
		st.ItemsSent += w.itemsSent
		units, runs, bytes = units+w.units, runs+w.runs, bytes+w.bytes
	}
	sp.Arg("units", units)
	sp.Arg("runs", runs)
	sp.Arg("bytes", bytes)
	return walkers, err
}

// baseWalker ships one forest tree's conditional pattern bases. It walks the
// tree once in preorder with the current path's nodes and ranks on stacks, so
// a node's prefix path is the stack below it: no node climbs its parent
// chain, and the forest keeps none.
// Each node of rank r with a non-empty prefix stages one unit, (count, the
// prefix minus conf[r]), in r's stage, a stageBytes window of one slab. A
// stage that cannot take the next unit goes to r's owner as one run,
// (rank, units, (count, path)*), so the rank is on the wire once per run and
// the owner receives each rank's units grouped. A unit longer than a whole
// stage goes alone as a one-unit run and never enters the slab. A run for
// this node itself never enters the exchange: its unit bytes are copied once
// into the walker's own chunks, each a sequence of (slot, unit bytes).
type baseWalker struct {
	m     *fpgMiner
	b     *driver.Batcher
	stage [][]byte // stage[r]: rank r's staged units, capacity stageBytes
	held  []int32  // held[r]: the number of units in stage[r]
	up    []int32  // the preorder walk's path of nodes
	path  []item.Item
	at    []int32 // at[r]: where rank r was last pushed on path
	keep  []item.Item
	unit  []byte
	head  []byte
	own   [][]byte // the last chunk is open

	units, runs, bytes, itemsSent int64
}

const ownChunkBytes = 16 << 10 // an own chunk's size, unless a run needs more

func (m *fpgMiner) newBaseWalker(b *driver.Batcher) *baseWalker {
	slab := make([]byte, m.numLarge*stageBytes)
	stage := make([][]byte, m.numLarge)
	for r := range stage {
		stage[r] = slab[r*stageBytes : r*stageBytes : (r+1)*stageBytes]
	}
	return &baseWalker{m: m, b: b, stage: stage, held: make([]int32, m.numLarge), at: make([]int32, m.numLarge)}
}

// walk stages a unit for every node of t that is not a child of the root,
// then sends every stage still holding units and flushes the batcher.
func (w *baseWalker) walk(t *fpTree) error {
	up := t.preorder(w.up[:0])
	for ; len(up) > 0; up = t.preorder(up) {
		depth := len(up) - 1 // the node's depth under the root's children: w.path[:depth] is its prefix
		nd := &t.nodes[up[depth]]
		w.path = append(w.path[:depth], nd.rank)
		w.at[nd.rank] = int32(depth)
		if depth > 0 {
			if err := w.stageUnit(nd.rank, w.path[:depth], int64(nd.count)); err != nil {
				return err
			}
		}
	}
	w.up = up
	for r, n := range w.held {
		if n > 0 {
			if err := w.sendStage(item.Item(r)); err != nil {
				return err
			}
		}
	}
	return w.b.FlushAll()
}

// stageUnit stages rank r's unit for one node: its count and its prefix with
// the ranks in the ancestor relation with r's item dropped. A prefix left
// empty carries nothing beyond r's own support, which pass 1 already fixed.
func (w *baseWalker) stageUnit(r item.Item, prefix []item.Item, count int64) error {
	keep, from := w.keep[:0], 0
	for _, c := range w.m.conf[r] { // ascending, like their stack positions
		if i := int(w.at[c]); i < len(prefix) && prefix[i] == c {
			keep = append(keep, prefix[from:i]...)
			from = i + 1
		}
	}
	if from == 0 {
		keep = prefix
	} else {
		keep = append(keep, prefix[from:]...)
		w.keep = keep
	}
	if len(keep) == 0 {
		return nil
	}
	w.unit = wire.AppendItems(wire.AppendUvarint(w.unit[:0], uint64(count)), keep)
	w.units++
	if int(r)%w.m.numNodes != w.m.nodeID {
		w.itemsSent += int64(len(keep))
	}
	if st := w.stage[r]; len(st)+len(w.unit) > cap(st) {
		if len(st) > 0 {
			if err := w.sendStage(r); err != nil {
				return err
			}
		}
		if len(w.unit) > stageBytes {
			return w.send(r, 1, w.unit)
		}
	}
	w.stage[r] = append(w.stage[r], w.unit...)
	w.held[r]++
	return nil
}

// sendStage sends rank r's stage as one run and empties it.
func (w *baseWalker) sendStage(r item.Item) error {
	err := w.send(r, w.held[r], w.stage[r])
	w.stage[r], w.held[r] = w.stage[r][:0], 0
	return err
}

// send hands one run of rank r, holding units units, to r's owner: a peer
// through the batcher, this node by appending the run's slot and body to the
// open own chunk (a new one when it does not fit).
func (w *baseWalker) send(r item.Item, units int32, body []byte) error {
	w.head = wire.AppendUvarint(wire.AppendUvarint(w.head[:0], uint64(r)), uint64(units))
	w.runs++
	w.bytes += int64(len(w.head) + len(body))
	if owner := int(r) % w.m.numNodes; owner != w.m.nodeID {
		return w.b.AddRun(owner, w.head, body)
	}
	need := len(body) + 20 // two uvarints at most
	if n := len(w.own); n == 0 || need > cap(w.own[n-1])-len(w.own[n-1]) {
		w.own = append(w.own, make([]byte, 0, max(ownChunkBytes, need)))
	}
	c := &w.own[len(w.own)-1]
	*c = append(wire.AppendUvarint(wire.AppendUvarint(*c, uint64(int(r)/w.m.numNodes)), uint64(len(body))), body...)
	return nil
}

// applyBases is the cond-base exchange's receive callback. A batch is a
// sequence of runs. Each run's header is checked once — rank owned and not
// 0, at least one unit, no more units than the bytes left can hold — then
// each unit: count within [1, the suffix item's support], path canonical and
// below the rank. The batch is copied once (the exchange releases every
// batch once apply returns), and each checked run's unit bytes are appended
// to its slot as a sub-slice of the copy; runs before a rejected one are
// kept. Runs on the exchange receiver goroutine only, which has exclusive
// access to m.bases until Finish returns.
func (m *fpgMiner) applyBases(batch []byte) (int64, error) {
	b := slices.Clone(batch)
	var items int64
	path := make([]item.Item, 0, 32)
	d := wire.NewDec(b)
	for d.More() {
		r := d.Int()
		n := d.Count(2) // a unit is at least a count byte and a length byte
		if d.Err() != nil {
			break
		}
		if r == 0 || r >= m.numLarge || r%m.numNodes != m.nodeID {
			return items, fmt.Errorf("fpg: cond base run for foreign rank %d", r)
		}
		if n == 0 {
			return items, fmt.Errorf("fpg: empty cond base run for rank %d", r)
		}
		sup := m.itemCounts[m.itemAt[r]]
		start, runItems := len(b)-d.Len(), int64(0)
		for range n {
			count := d.I64() // decoded again by mineTask
			if path = d.Items(path[:0]); d.Err() != nil {
				return items, d.Err()
			}
			// A unit is one tree node's count: at least 1, and at most the
			// suffix item's global support.
			if count < 1 || count > sup {
				return items, fmt.Errorf("fpg: cond base count %d for rank %d outside [1, %d]", count, r, sup)
			}
			// A prefix path holds only ranks below its suffix rank.
			if len(path) > 0 && int(path[len(path)-1]) >= r {
				return items, fmt.Errorf("fpg: cond base path for rank %d holds rank %d", r, path[len(path)-1])
			}
			runItems += int64(len(path))
		}
		q := r / m.numNodes
		m.bases[q] = append(m.bases[q], b[start:len(b)-d.Len()])
		items += runItems
	}
	return items, d.Err()
}

// baseUnits decodes owned slot q's units in arrival order, handing each
// path and count to add (path is scratch, returned grown). applyBases
// checked every unit, so the decode cannot fail.
func (m *fpgMiner) baseUnits(q int, path []item.Item, add func(path []item.Item, count int64)) []item.Item {
	for _, run := range m.bases[q] {
		d := wire.NewDec(run)
		for d.More() {
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
// longest, and so the one most likely to gate the pass barrier. Its
// tree-bytes arg is the capacity, in bytes, of the conditional-tree arenas
// the workers hold when the pass ends.
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
	var incs, treeBytes atomic.Int64
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
		for _, t := range sc.trees {
			treeBytes.Add(t.arenaBytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.Increments += incs.Load()
	total := 0
	for _, res := range results {
		total += len(res)
	}
	m.own = make([]itemset.Counted, 0, total)
	for _, res := range results {
		m.own = append(m.own, res...)
	}
	sp.Arg("tasks", int64(len(tasks)))
	sp.Arg("patterns", int64(len(m.own)))
	sp.Arg("tree-bytes", treeBytes.Load())
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
	for ni := t.heads[r]; ni != -1; ni = t.links[ni].next {
		c := int64(t.nodes[ni].count)
		sc.increments++
		for p := t.links[ni].parent; p > 0; p = t.links[p].parent {
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
		sc.climb = extractPaths(t, r, skip, sc.climb, func(path []item.Item, count int64) {
			sub.add(path, count)
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
