package seq

import (
	"fmt"
	"math/bits"
	"sort"

	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// seqMiner is the sequence-mining half of a node: the driver.Miner that
// plugs the [SK98] family (NPSPM/SPSPM/HPSPM) into the shared-nothing
// runtime. One instance per node; the runtime calls its hooks from the node
// goroutine in protocol order.
type seqMiner struct {
	tax *taxonomy.Taxonomy
	db  *DB
	cfg driver.Spec

	// Global mining state, identical on every node after each barrier.
	large []bool          // frequent-item flags after pass 1
	prev  []Pattern       // F_{k-1}, the generation input
	cands [][][]item.Item // C_k of the pass in flight

	// owners[i] is the node that counts cands[i], computed by PlanPass for
	// the partitioned algorithms (nil for the replicated NPSPM).
	owners []int

	// Barrier contribution of the pass in flight: the frequent patterns this
	// node owns (partitioned algorithms). The coordinator merges its own
	// share from here instead of round-tripping it through the wire encoding.
	owned []Pattern

	// Result accumulation, filled where the runtime keeps results.
	result *Result
}

// newSeqMiner is this family's share of validation: the Spec must name a
// sequence miner and set none of the candidate-family knobs.
func newSeqMiner(tax *taxonomy.Taxonomy, db *DB, cfg driver.Spec) (*seqMiner, error) {
	if _, err := ParseAlgorithm(string(cfg.Algorithm)); err != nil {
		return nil, err
	}
	if err := cfg.RejectCandidateKnobs(); err != nil {
		return nil, err
	}
	return &seqMiner{tax: tax, db: db, cfg: cfg}, nil
}

func (m *seqMiner) LocalSize() int { return m.db.Len() }

func (m *seqMiner) NumItems() int { return m.tax.NumItems() }

// CountPass1 counts item support per customer: a customer supports item x
// when some element's closure contains x. ExtendTransaction dedups against
// the accumulated scratch, so each item counts once per customer — exactly
// the sequential baseline's pass 1.
func (m *seqMiner) CountPass1(n *driver.Node, st *metrics.NodeStats) ([]int64, error) {
	W := n.Workers()
	wcounts := driver.WorkerVectors(W, m.tax.NumItems())
	closure := func(dst []item.Item, s Sequence) []item.Item {
		for _, e := range s.Elements {
			dst = m.tax.ExtendTransaction(dst, e)
		}
		return dst
	}
	err := driver.CountPhase(m.db, W, n.ShardObs("scan"), st, closure, nil, func(w *driver.Worker, _ Sequence) error {
		counts := wcounts[w.ID]
		for _, x := range w.Ext {
			counts[x]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return driver.MergeWorkerVectors(wcounts), nil
}

// FinishPass1 consumes the globally reduced pass-1 counts and derives the
// replicated F_1 state every later pass builds on.
func (m *seqMiner) FinishPass1(n *driver.Node, global []int64) (int, error) {
	m.large = make([]bool, m.tax.NumItems())
	var f1 []Pattern
	for i, c := range global {
		if c >= n.MinCount() {
			m.large[i] = true
			f1 = append(f1, Pattern{Elements: [][]item.Item{{item.Item(i)}}, Count: c})
		}
	}
	m.record(n, f1)
	return len(f1), nil
}

// Generate materializes C_k from F_{k-1} via the GSP join + prune, sharded
// across the node's workers; deterministic on every node (same F_{k-1},
// same generator, shard-order concatenation).
func (m *seqMiner) Generate(n *driver.Node, k int) (int, error) {
	m.cands = GenerateCandidatesN(m.tax, m.prev, k, n.Workers(), n.BoundaryObs("generate shard").Hook())
	return len(m.cands), nil
}

// PlanPass computes pass k's candidate-to-node assignment. The sequence
// miners are static planners — the skew hint is ignored — which keeps the
// planner seam honest: the driver's plan phase imposes no adaptivity,
// only an explicit, inspectable assignment per pass.
//
// SPSPM hashes the canonical pattern key; HPSPM hashes the pattern's root
// vector (the sorted multiset of its items' hierarchy roots), the H-HPGM
// rule: all candidates of one tree combination live on one node, so a
// destination's item filter covers whole subtrees. NPSPM replicates C_k and
// assigns nothing.
func (m *seqMiner) PlanPass(n *driver.Node, k int, _ *metrics.SkewReport) (driver.PlanDecision, error) {
	switch m.cfg.Algorithm {
	case NPSPM:
		m.owners = nil
		return driver.PlanDecision{Partitioner: "replicated", Granule: "all", Duplicated: len(m.cands)}, nil
	case SPSPM, HPSPM:
	default:
		return driver.PlanDecision{}, fmt.Errorf("seq: unknown algorithm %q", m.cfg.Algorithm)
	}
	nNodes := n.NumNodes()
	psp := n.Span("partition")
	W := n.Workers()
	owners := make([]int, len(m.cands))
	itemset.ForShards(len(m.cands), W, n.BoundaryObs("partition shard").Hook(), func(w, lo, hi int) {
		var roots []item.Item // per-shard root-vector scratch (HPSPM)
		for i := lo; i < hi; i++ {
			if m.cfg.Algorithm == HPSPM {
				var h uint64
				h, roots = patternRootHashScratch(m.tax, m.cands[i], roots)
				owners[i] = int(h % uint64(nNodes))
			} else {
				owners[i] = int(patternHash(m.cands[i]) % uint64(nNodes))
			}
		}
	})
	m.owners = owners
	owned := 0
	for i := range owners {
		if owners[i] == n.ID() {
			owned++
		}
	}
	psp.Arg("owned", int64(owned))
	psp.Arg("workers", int64(W))
	psp.End()
	part := "pattern-hash"
	if m.cfg.Algorithm == HPSPM {
		part = "pattern-root-hash"
	}
	return driver.PlanDecision{Partitioner: part, Granule: "none"}, nil
}

// CountPass runs pass k's count-support phase under the configured
// algorithm, over the assignment PlanPass computed, and prepares this node's
// barrier contribution.
func (m *seqMiner) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	m.owned = m.owned[:0]
	po := driver.PassOutcome{}
	switch m.cfg.Algorithm {
	case NPSPM:
		counts, err := m.countReplicated(n, st)
		if err != nil {
			return driver.PassOutcome{}, err
		}
		po.DupCounts = counts
		po.Duplicated = len(m.cands)
	case SPSPM, HPSPM:
		if err := m.countPartitioned(n, k, st); err != nil {
			return driver.PassOutcome{}, err
		}
	default:
		return driver.PassOutcome{}, fmt.Errorf("seq: unknown algorithm %q", m.cfg.Algorithm)
	}
	if !n.IsCoord() {
		po.Owned = encodePatternList(m.owned)
	}
	return po, nil
}

// countReplicated is NPSPM: every candidate is counted locally against the
// local customers; the coordinator reduces the dense vectors at the barrier.
// No count-support data moves between nodes.
func (m *seqMiner) countReplicated(n *driver.Node, st *metrics.NodeStats) ([]int64, error) {
	W := n.Workers()
	wcounts := driver.WorkerVectors(W, len(m.cands))
	masks := candRootMasks(m.tax, m.cands)
	err := driver.CountPhase(m.db, W, n.ShardObs("scan"), st, nil, nil, func(w *driver.Worker, s Sequence) error {
		ws := &w.Stats
		if maskSkips(masks, seqRootMask(m.tax, s.Elements)) {
			// No candidate's root multiset is realizable from this customer's
			// items, so no candidate can be contained: skip the closure build
			// and the whole probe loop (counted on BlocksSkipped with the
			// customer sequence as the unit).
			ws.BlocksSkipped++
			return nil
		}
		closures := Closures(m.tax, s, m.large)
		counts := wcounts[w.ID]
		for i, c := range m.cands {
			ws.Probes++
			if Contains(c, closures) {
				counts[i]++
				ws.Increments++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return driver.MergeWorkerVectors(wcounts), nil
}

// countPartitioned covers the two hash-partitioned miners. Both assign every
// candidate to one owner; every customer sequence travels to the owners so
// each candidate is counted exactly once, globally:
//
//	SPSPM  broadcasts each closed local sequence to every node — simple, but
//	       the whole database crosses the fabric N-1 times.
//	HPSPM  ships each destination only what it can use: elements filtered to
//	       the items of the destination's owned candidates, with emptied
//	       elements dropped and the sequence skipped entirely when fewer
//	       than k items survive (a k-item candidate needs k matched items
//	       across distinct elements). Filtering never changes a contained
//	       candidate's match — its items all survive the filter by
//	       construction — so counts are identical while bytes shrink.
func (m *seqMiner) countPartitioned(n *driver.Node, k int, st *metrics.NodeStats) error {
	nNodes := n.NumNodes()
	self := n.ID()

	// Candidate ownership was computed by PlanPass; derive this node's share
	// and the per-destination filters from it.
	owners := m.owners
	W := n.Workers()
	var ownedIdx []int
	for i := range owners {
		if owners[i] == self {
			ownedIdx = append(ownedIdx, i)
		}
	}
	// HPSPM: per-destination item filter — the union of the destination's
	// owned candidates' items.
	var keep [][]bool
	if m.cfg.Algorithm == HPSPM {
		keep = make([][]bool, nNodes)
		for d := range keep {
			keep[d] = make([]bool, m.tax.NumItems())
		}
		for i, c := range m.cands {
			kd := keep[owners[i]]
			for _, e := range c {
				for _, x := range e {
					kd[x] = true
				}
			}
		}
	}

	// Receiver: one unit is one (possibly filtered) closed customer
	// sequence; the receiver alone touches the owned counts and the node's
	// probe counters.
	counts := make([]int64, len(m.cands))
	xsp := n.Span("exchange")
	cp := n.NewExchange(driver.KData, func(batch []byte) (int64, error) {
		var items int64
		d := wire.NewDec(batch)
		for d.More() {
			closures := d.ItemsList()
			if d.Err() != nil {
				break
			}
			items += closureItems(closures)
			for _, i := range ownedIdx {
				st.Probes++
				if Contains(m.cands[i], closures) {
					counts[i]++
					st.Increments++
				}
			}
		}
		return items, d.Err()
	})

	wunit := make([][]byte, W) // per-worker encode scratch
	welem := make([][]item.Item, W)
	masks := candRootMasks(m.tax, m.cands)
	err := driver.CountPhase(m.db, W, n.ShardObs("count"), st, nil, cp, func(w *driver.Worker, s Sequence) error {
		ws, bat := &w.Stats, w.Bat
		if maskSkips(masks, seqRootMask(m.tax, s.Elements)) {
			// No node's candidates can be contained in this customer, so
			// nothing needs to travel anywhere — the sequence is dropped
			// before the closure build and the broadcast/filter fan-out.
			ws.BlocksSkipped++
			return nil
		}
		closures := Closures(m.tax, s, m.large)
		if m.cfg.Algorithm == SPSPM {
			unit := wire.AppendItemsList(wunit[w.ID][:0], closures)
			wunit[w.ID] = unit
			items := closureItems(closures)
			for dest := 0; dest < nNodes; dest++ {
				if dest != self {
					ws.ItemsSent += items
				}
				if err := bat.AddRaw(dest, unit); err != nil {
					return err
				}
			}
			return nil
		}
		// HPSPM: filter per destination.
		for dest := 0; dest < nNodes; dest++ {
			kd := keep[dest]
			nel, nit := 0, 0
			for _, cl := range closures {
				ne := 0
				for _, x := range cl {
					if kd[x] {
						ne++
					}
				}
				if ne > 0 {
					nel++
					nit += ne
				}
			}
			if nit < k {
				continue // cannot contain any k-item candidate owned by dest
			}
			unit := wire.AppendUvarint(wunit[w.ID][:0], uint64(nel))
			for _, cl := range closures {
				elem := welem[w.ID][:0]
				for _, x := range cl {
					if kd[x] {
						elem = append(elem, x)
					}
				}
				welem[w.ID] = elem
				if len(elem) > 0 {
					unit = wire.AppendItems(unit, elem)
				}
			}
			wunit[w.ID] = unit
			if dest != self {
				ws.ItemsSent += int64(nit)
			}
			if err := bat.AddRaw(dest, unit); err != nil {
				return err
			}
		}
		return nil
	})
	xsp.End()
	if err != nil {
		return err
	}

	// Threshold the owned candidates locally; only frequent ones travel to
	// the coordinator.
	for _, i := range ownedIdx {
		if counts[i] >= n.MinCount() {
			m.owned = append(m.owned, Pattern{Elements: m.cands[i], Count: counts[i]})
		}
	}
	return nil
}

// MergeFrequents merges the coordinator's own owned share, the peers' owned
// frequents and the reduced replicated counts (NPSPM) into the global F_k.
func (m *seqMiner) MergeFrequents(n *driver.Node, _ int, peerOwned [][]byte, dupTotal []int64) ([]byte, int, error) {
	all := append([]Pattern(nil), m.owned...)
	for _, p := range peerOwned {
		d := wire.NewDec(p)
		pats, counts := d.PatternList()
		if err := d.Done(); err != nil {
			return nil, 0, fmt.Errorf("seq: decode owned frequents: %w", err)
		}
		for i := range pats {
			all = append(all, Pattern{Elements: pats[i], Count: counts[i]})
		}
	}
	for i, c := range dupTotal {
		if c >= n.MinCount() {
			all = append(all, Pattern{Elements: m.cands[i], Count: c})
		}
	}
	SortPatterns(all)
	m.record(n, all)
	return encodePatternList(all), len(all), nil
}

// FinishPass decodes the coordinator's F_k broadcast on a follower.
func (m *seqMiner) FinishPass(n *driver.Node, _ int, payload []byte) (int, error) {
	d := wire.NewDec(payload)
	pats, counts := d.PatternList()
	if err := d.Done(); err != nil {
		return 0, fmt.Errorf("seq: decode F_k broadcast: %w", err)
	}
	fk := make([]Pattern, len(pats))
	for i := range pats {
		fk[i] = Pattern{Elements: pats[i], Count: counts[i]}
	}
	m.record(n, fk)
	return len(fk), nil
}

// record stores F_k (mirroring the sequential baseline, an empty F_k
// terminates the run and is not recorded as a level) and stages it as the
// next pass's generation input.
func (m *seqMiner) record(n *driver.Node, fk []Pattern) {
	if n.Keep() {
		if m.result == nil {
			m.result = &Result{NumCustomers: n.TotalSize()}
		}
		if len(fk) > 0 {
			m.result.Frequent = append(m.result.Frequent, fk)
		}
	}
	m.prev = fk
}

// candidateOwner maps a candidate sequence to the node that counts it.
func candidateOwner(tax *taxonomy.Taxonomy, alg Algorithm, elements [][]item.Item, nNodes int) int {
	if alg == HPSPM {
		return int(patternRootHash(tax, elements) % uint64(nNodes))
	}
	return int(patternHash(elements) % uint64(nNodes))
}

// patternHash hashes a pattern's canonical key (FNV-1a over Key's byte
// stream, computed without building the string).
func patternHash(elements [][]item.Item) uint64 {
	return hashElements(elements)
}

// patternRootHash hashes the pattern's root vector — the sorted multiset of
// the hierarchy roots of every item across its elements. Candidates of one
// tree combination share a hash, so they share an owner (the H-HPGM rule).
func patternRootHash(tax *taxonomy.Taxonomy, elements [][]item.Item) uint64 {
	h, _ := patternRootHashScratch(tax, elements, nil)
	return h
}

// patternRootHashScratch is patternRootHash with a caller-owned scratch
// buffer, so sharded partition planning hashes without per-candidate
// allocations; it returns the (possibly grown) scratch for reuse.
func patternRootHashScratch(tax *taxonomy.Taxonomy, elements [][]item.Item, scratch []item.Item) (uint64, []item.Item) {
	scratch = scratch[:0]
	for _, e := range elements {
		for _, x := range e {
			scratch = append(scratch, tax.Root(x))
		}
	}
	item.Sort(scratch)
	return itemset.Hash(scratch), scratch
}

// encodePatternList serializes patterns with their counts for the barrier.
func encodePatternList(ps []Pattern) []byte {
	elems := make([][][]item.Item, len(ps))
	counts := make([]int64, len(ps))
	for i, p := range ps {
		elems[i] = p.Elements
		counts[i] = p.Count
	}
	return wire.AppendPatternList(nil, elems, counts)
}

// seqRootMask folds the hierarchy roots of a sequence's literal items into a
// 64-bit mask (bit = root mod 64). Every item of a closed element is an
// ancestor-or-self of some literal item and shares its root, so the closure's
// roots are always a subset of this mask — large-item filtering only shrinks
// them further. Folding roots mod 64 can only set extra bits shared between
// distinct roots, so the mask over-approximates and skips stay conservative.
func seqRootMask(tax *taxonomy.Taxonomy, elements [][]item.Item) uint64 {
	var m uint64
	for _, e := range elements {
		for _, x := range e {
			m |= 1 << (uint(tax.Root(x)) & 63)
		}
	}
	return m
}

// candRootMasks returns the deduplicated root masks of the pass's candidate
// sequences, ascending by popcount (then value, for determinism): the masks
// with the fewest required roots are the likeliest to be realizable, so the
// skip check's "cannot skip" exit triggers on the first compare for most
// customers.
func candRootMasks(tax *taxonomy.Taxonomy, cands [][][]item.Item) []uint64 {
	seen := make(map[uint64]struct{}, len(cands))
	masks := make([]uint64, 0, len(cands))
	for _, c := range cands {
		m := seqRootMask(tax, c)
		if _, ok := seen[m]; !ok {
			seen[m] = struct{}{}
			masks = append(masks, m)
		}
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := bits.OnesCount64(masks[i]), bits.OnesCount64(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})
	return masks
}

// maskSkips reports whether a customer with root mask seqMask can be skipped
// outright: true when every candidate mask requires at least one root bit the
// customer does not have. Containment of candidate c in a customer implies
// every root of c appears among the customer's roots, so mask(c) ⊆ seqMask is
// necessary for a match — a definite miss on all candidates is exact.
func maskSkips(masks []uint64, seqMask uint64) bool {
	for _, m := range masks {
		if m&^seqMask == 0 {
			return false
		}
	}
	return true
}

// closureItems counts the items of a closed sequence.
func closureItems(closures [][]item.Item) int64 {
	var n int64
	for _, c := range closures {
		n += int64(len(c))
	}
	return n
}
