package fpg

import (
	"pgarm/internal/item"
)

// fpNode is one arena slot of an FP-tree. Links are arena indices (-1 =
// none); node 0 is the root. Keeping the tree in one flat slice with int32
// links — instead of pointer-linked heap nodes with per-node child maps —
// is what makes tree build allocation-free in steady state (see
// BenchmarkBuildTree): the arena is the only allocation — made once at the
// pass-1 bound for the forest, grown by append only for conditional trees and
// an over-full worker share — and child lookup is a sibling scan with
// move-to-front, so hot branches resolve in O(1) without any map.
type fpNode struct {
	rank   item.Item // frequency rank of the item at this node (-1 at the root)
	parent int32
	child  int32 // first child
	sib    int32 // next sibling under the same parent
	next   int32 // next node of the same rank (header-table chain)
	count  int64
}

// fpTree is a compact FP-tree over frequency ranks. Paths are inserted in
// ascending rank order (rank 0 = most frequent item), so every root-to-node
// path is rank-ascending and a node's prefix path contains only ranks lower
// than its own — the invariant the per-suffix task decomposition relies on.
type fpTree struct {
	nodes []fpNode
	// heads[r] is the head of rank r's header chain (-1 = rank absent).
	heads []int32
	// present lists the ranks that occur in this tree, in first-insertion
	// order; it makes reset and tally O(ranks present) instead of O(all
	// ranks), which matters for the small conditional trees of deep
	// recursion levels.
	present []item.Item
}

// newFPTree returns an empty tree over numRanks frequency ranks whose arena
// holds capNodes >= 1 nodes (the root included) before it has to grow.
func newFPTree(numRanks, capNodes int) *fpTree {
	t := &fpTree{
		nodes: make([]fpNode, 1, capNodes),
		heads: make([]int32, numRanks),
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.nodes[0] = fpNode{rank: -1, parent: -1, child: -1, sib: -1, next: -1}
	return t
}

// reset empties the tree for reuse without releasing its arena.
func (t *fpTree) reset() {
	for _, r := range t.present {
		t.heads[r] = -1
	}
	t.present = t.present[:0]
	t.nodes = t.nodes[:1]
	t.nodes[0].child = -1
}

// add inserts one rank-ascending path with the given count, sharing prefixes
// with previously inserted paths.
func (t *fpTree) add(path []item.Item, count int64) {
	cur := int32(0)
	for _, r := range path {
		// Find r among cur's children; move a found child to the front so
		// frequently extended branches stay O(1).
		found, prev := int32(-1), int32(-1)
		for c := t.nodes[cur].child; c != -1; c = t.nodes[c].sib {
			if t.nodes[c].rank == r {
				found = c
				break
			}
			prev = c
		}
		if found == -1 {
			found = int32(len(t.nodes))
			if t.heads[r] == -1 {
				t.present = append(t.present, r)
			}
			t.nodes = append(t.nodes, fpNode{
				rank:   r,
				parent: cur,
				child:  -1,
				sib:    t.nodes[cur].child,
				next:   t.heads[r],
			})
			t.nodes[cur].child = found
			t.heads[r] = found
		} else if prev != -1 {
			t.nodes[prev].sib = t.nodes[found].sib
			t.nodes[found].sib = t.nodes[cur].child
			t.nodes[cur].child = found
		}
		t.nodes[found].count += count
		cur = found
	}
}

// extractPaths walks rank r's header chains across trees and emits, for each
// tree node of rank r, its prefix path (rank-ascending, r excluded) filtered
// by skip, with the node's count. Empty filtered paths are skipped — they
// carry no information beyond r's own support, which pass 1 already fixed.
// climb is a reusable scratch buffer (returned grown).
func extractPaths(trees []*fpTree, r item.Item, skip func(item.Item) bool,
	climb []item.Item, emit func(path []item.Item, count int64) error) ([]item.Item, error) {
	for _, t := range trees {
		if int(r) >= len(t.heads) {
			continue
		}
		for ni := t.heads[r]; ni != -1; ni = t.nodes[ni].next {
			climb = climb[:0]
			for p := t.nodes[ni].parent; p > 0; p = t.nodes[p].parent {
				pr := t.nodes[p].rank
				if skip == nil || !skip(pr) {
					climb = append(climb, pr)
				}
			}
			if len(climb) == 0 {
				continue
			}
			// The climb collected ranks root-ward (descending); reverse to
			// the canonical ascending order.
			for i, j := 0, len(climb)-1; i < j; i, j = i+1, j-1 {
				climb[i], climb[j] = climb[j], climb[i]
			}
			if err := emit(climb, t.nodes[ni].count); err != nil {
				return climb, err
			}
		}
	}
	return climb, nil
}

// mineScratch is one mining worker's reusable state: the dense tally vector,
// the free list of conditional trees for the recursion, and climb scratch.
// One instance per worker goroutine; never shared.
type mineScratch struct {
	tally      []int64
	touched    []item.Item
	climb      []item.Item
	trees      []*fpTree
	increments int64
}

func newMineScratch(numRanks int) *mineScratch {
	return &mineScratch{tally: make([]int64, numRanks)}
}

func (sc *mineScratch) getTree(numRanks int) *fpTree {
	if n := len(sc.trees); n > 0 {
		t := sc.trees[n-1]
		sc.trees = sc.trees[:n-1]
		return t
	}
	return newFPTree(numRanks, 256)
}

func (sc *mineScratch) putTree(t *fpTree) {
	t.reset()
	sc.trees = append(sc.trees, t)
}
