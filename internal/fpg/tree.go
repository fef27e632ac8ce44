package fpg

import (
	"cmp"
	"slices"
	"unsafe"

	"pgarm/internal/item"
)

// fpNode is one arena slot of an FP-tree: the 16 B every walk reads. Links
// are arena indices (-1 = none); node 0 is the root. Keeping the tree in one
// flat slice with int32 links — instead of pointer-linked heap nodes with
// per-node child maps — is what makes tree build allocation-free in steady
// state (see BenchmarkBuildTree): the arena is the only allocation — made once
// at the pass-1 bound for the forest, grown by append only for conditional
// trees and an over-full worker share — and child lookup is a sibling scan
// with move-to-front, so hot branches resolve in O(1) without any map. A count
// is at most the largest global closure count, which FinishPass1 bounds by
// math.MaxUint32.
type fpNode struct {
	rank  item.Item // frequency rank of the item at this node (-1 at the root)
	child int32     // first child
	sib   int32     // next sibling under the same parent
	count uint32
}

// fpLink is a node's climb links, held beside the arena by a tree that is
// climbed: its parent and the next node of the same rank (header-table
// chain).
type fpLink struct {
	parent int32
	next   int32
}

// fpTree is a compact FP-tree over frequency ranks. Paths are inserted in
// ascending rank order (rank 0 = most frequent item), so every root-to-node
// path is rank-ascending and a node's prefix path contains only ranks lower
// than its own — the invariant the per-suffix task decomposition relies on.
//
// A conditional tree is climbed from its header chains (condTree,
// extractPaths), so it keeps links[i] for node i (24 B a node in all). The
// forest is only walked in preorder (baseWalker), which keeps the current
// path on a stack, so it is built without climb links: links, heads and
// present stay nil and a node costs 16 B.
type fpTree struct {
	nodes []fpNode
	links []fpLink
	// heads[r] is the head of rank r's header chain (-1 = rank absent).
	heads []int32
	// present lists the ranks that occur in this tree, in first-insertion
	// order; it makes reset and tally O(ranks present) instead of O(all
	// ranks), which matters for the small conditional trees of deep
	// recursion levels.
	present []item.Item
}

var rootNode = fpNode{rank: -1, child: -1, sib: -1}

// newFPTree returns an empty climbable tree over numRanks frequency ranks
// whose arena holds capNodes >= 1 nodes (the root included) before it has to
// grow.
func newFPTree(numRanks, capNodes int) *fpTree {
	t := &fpTree{
		nodes: append(make([]fpNode, 0, capNodes), rootNode),
		links: append(make([]fpLink, 0, capNodes), fpLink{parent: -1, next: -1}),
		heads: make([]int32, numRanks),
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// newForestTree returns an empty tree without climb links whose arena holds
// capNodes >= 1 nodes (the root included) before it has to grow.
func newForestTree(capNodes int) *fpTree {
	return &fpTree{nodes: append(make([]fpNode, 0, capNodes), rootNode)}
}

// arenaBytes is the capacity of t's node arena and climb links, in bytes.
func (t *fpTree) arenaBytes() int64 {
	return int64(cap(t.nodes))*int64(unsafe.Sizeof(fpNode{})) + int64(cap(t.links))*int64(unsafe.Sizeof(fpLink{}))
}

// reset empties a climbable tree for reuse without releasing its arena.
func (t *fpTree) reset() {
	for _, r := range t.present {
		t.heads[r] = -1
	}
	t.present = t.present[:0]
	t.nodes = t.nodes[:1]
	t.links = t.links[:1]
	t.nodes[0].child = -1
}

// add inserts one rank-ascending path with the given count, sharing prefixes
// with previously inserted paths. The count fits a node: it is part of some
// item's global closure count.
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
			t.nodes = append(t.nodes, fpNode{rank: r, child: -1, sib: t.nodes[cur].child})
			t.nodes[cur].child = found
			if t.heads != nil {
				if t.heads[r] == -1 {
					t.present = append(t.present, r)
				}
				t.links = append(t.links, fpLink{parent: cur, next: t.heads[r]})
				t.heads[r] = found
			}
		} else if prev != -1 {
			t.nodes[prev].sib = t.nodes[found].sib
			t.nodes[found].sib = t.nodes[cur].child
			t.nodes[cur].child = found
		}
		t.nodes[found].count += uint32(count)
		cur = found
	}
}

// preorder steps a walk of t in preorder without parent links. path[d] is
// the node at depth d below the root on the way to the current node, the
// last one; the result is the path to the next node, in path's array. An
// empty path asks for the first node, and an empty result ends the walk.
func (t *fpTree) preorder(path []int32) []int32 {
	if len(path) == 0 {
		if c := t.nodes[0].child; c != -1 {
			return append(path, c)
		}
		return path
	}
	if c := t.nodes[path[len(path)-1]].child; c != -1 {
		return append(path, c)
	}
	// Step to the next sibling of the last node or of its nearest ancestor
	// with one.
	for n := len(path); n > 0; n-- {
		if s := t.nodes[path[n-1]].sib; s != -1 {
			path[n-1] = s
			return path[:n]
		}
	}
	return path[:0]
}

// extractPaths walks rank r's header chain in the climbable tree t and emits,
// for each node of rank r, its prefix path (rank-ascending, r excluded)
// filtered by skip, with the node's count. Empty filtered paths are skipped:
// they carry nothing beyond r's own support. climb is a reusable scratch
// buffer (returned grown).
func extractPaths(t *fpTree, r item.Item, skip func(item.Item) bool,
	climb []item.Item, emit func(path []item.Item, count int64)) []item.Item {
	for ni := t.heads[r]; ni != -1; ni = t.links[ni].next {
		climb = climb[:0]
		for p := t.links[ni].parent; p > 0; p = t.links[p].parent {
			if pr := t.nodes[p].rank; !skip(pr) {
				climb = append(climb, pr)
			}
		}
		if len(climb) == 0 {
			continue
		}
		// The climb collected ranks root-ward (descending); reverse to the
		// canonical ascending order.
		slices.Reverse(climb)
		emit(climb, int64(t.nodes[ni].count))
	}
	return climb
}

// mineScratch is one mining worker's reusable state: the dense tally vector
// and the ranks it touched, one survivor buffer per recursion depth, the free
// list of conditional trees for the recursion, and climb scratch. One
// instance per worker goroutine; never shared.
type mineScratch struct {
	tally      []int64
	touched    []item.Item
	levels     [][]rankCount
	climb      []item.Item
	trees      []*fpTree
	increments int64
}

func newMineScratch(numRanks int) *mineScratch {
	return &mineScratch{tally: make([]int64, numRanks)}
}

// survivors collects the touched ranks whose tally reaches minCount into
// depth's buffer, rank-ascending. The tallies stay until clearTally.
func (sc *mineScratch) survivors(depth int, minCount int64) []rankCount {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, nil)
	}
	surv := sc.levels[depth][:0]
	for _, r := range sc.touched {
		if c := sc.tally[r]; c >= minCount {
			surv = append(surv, rankCount{rank: r, count: c})
		}
	}
	slices.SortFunc(surv, func(a, b rankCount) int { return cmp.Compare(a.rank, b.rank) })
	sc.levels[depth] = surv
	return surv
}

// clearTally zeroes every touched rank's tally.
func (sc *mineScratch) clearTally() {
	for _, r := range sc.touched {
		sc.tally[r] = 0
	}
	sc.touched = sc.touched[:0]
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
