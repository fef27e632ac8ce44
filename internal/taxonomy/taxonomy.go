// Package taxonomy implements the classification hierarchy T over the item
// universe: a forest of is-a trees (Figure 1 of the paper). It provides the
// hierarchy queries every algorithm layer relies on — parent, root, ancestor
// closure, level — plus the two transforms Cumulate and the parallel
// algorithms apply each pass:
//
//   - extending a transaction with all ancestors of its items (Cumulate,
//     NPGM, HPGM, and the H-HPGM family's duplicated candidates), and
//   - replacing each item with the large item among its ancestors closest to
//     the bottom of the hierarchy (H-HPGM family, line (8) of Figure 5).
//
// The engines extend through a Closure: a per-pass slot table that emits a
// transaction's kept closure in slot order from a bitset, with no sort, and
// pass 1 counts the closure in place (CountClosure). ExtendTransaction, which
// walks every chain and sorts, is the reference the sequential Cumulate
// oracle, the server and the tests use.
//
// A Taxonomy is immutable once built; all query methods are safe for
// concurrent use.
package taxonomy

import (
	"fmt"

	"pgarm/internal/item"
)

// Taxonomy is an immutable classification hierarchy over items 0..N-1.
// Every item belongs to exactly one tree; roots have no parent. Edges point
// from parent to child and represent is-a relationships: an edge x→y makes x
// a parent of y, and the transitive closure defines ancestors/descendants.
type Taxonomy struct {
	parent []item.Item // parent[i] = parent of i, or item.None for roots
	// children[childAt[i]:childAt[i+1]] are the direct children of i,
	// ascending: one array for the whole forest, not a slice per item.
	children []item.Item
	childAt  []int32
	root     []item.Item // root[i] = root of the tree containing i
	level    []int32     // level[i] = depth from the root (root = 0)
	roots    []item.Item // all roots, ascending
	leaves   []item.Item // all leaf items, ascending
	maxLevel int32
}

// New builds a taxonomy from a parent vector: parent[i] is the parent of
// item i, or item.None if i is a root. It validates that identifiers are in
// range and the structure is a forest (acyclic, single parent).
func New(parent []item.Item) (*Taxonomy, error) {
	n := len(parent)
	t := &Taxonomy{
		parent:  make([]item.Item, n),
		childAt: make([]int32, n+1),
		root:    make([]item.Item, n),
		level:   make([]int32, n),
	}
	copy(t.parent, parent)
	// Count each item's children at childAt[p+1], sum the counts to offsets,
	// then place every child at its parent's cursor childAt[p], which ends at
	// the next item's offset; one shift restores the offsets.
	numRoots := 0
	for i, p := range parent {
		if p == item.Item(i) {
			return nil, fmt.Errorf("taxonomy: item %d is its own parent", i)
		}
		if p == item.None {
			numRoots++
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("taxonomy: item %d has out-of-range parent %d", i, p)
		}
		t.childAt[p+1]++
	}
	numLeaves := 0
	for i := 0; i < n; i++ {
		if t.childAt[i+1] == 0 {
			numLeaves++
		}
		t.childAt[i+1] += t.childAt[i]
	}
	t.children = make([]item.Item, t.childAt[n])
	for i, p := range parent {
		if p != item.None {
			t.children[t.childAt[p]] = item.Item(i)
			t.childAt[p]++
		}
	}
	copy(t.childAt[1:], t.childAt[:n])
	t.childAt[0] = 0
	// Resolve root and level for every item, detecting cycles: walk up with a
	// step bound of n.
	for i := 0; i < n; i++ {
		cur := item.Item(i)
		var depth int32
		for steps := 0; ; steps++ {
			if steps > n {
				return nil, fmt.Errorf("taxonomy: cycle detected through item %d", i)
			}
			p := t.parent[cur]
			if p == item.None {
				break
			}
			cur = p
			depth++
		}
		t.root[i] = cur
		t.level[i] = depth
		if depth > t.maxLevel {
			t.maxLevel = depth
		}
	}
	t.roots = make([]item.Item, 0, numRoots)
	t.leaves = make([]item.Item, 0, numLeaves)
	for i := 0; i < n; i++ {
		if t.parent[i] == item.None {
			t.roots = append(t.roots, item.Item(i))
		}
		if t.childAt[i] == t.childAt[i+1] {
			t.leaves = append(t.leaves, item.Item(i))
		}
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// hand-written hierarchies.
func MustNew(parent []item.Item) *Taxonomy {
	t, err := New(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// NumItems returns the size of the item universe (hierarchy nodes included).
func (t *Taxonomy) NumItems() int { return len(t.parent) }

// Parent returns the parent of x, or item.None if x is a root.
func (t *Taxonomy) Parent(x item.Item) item.Item { return t.parent[x] }

// Children returns the direct children of x, ascending. The returned slice
// is shared; callers must not modify it. Its capacity ends at its length, so
// an append copies instead of overwriting the next item's children.
func (t *Taxonomy) Children(x item.Item) []item.Item {
	lo, hi := t.childAt[x], t.childAt[x+1]
	return t.children[lo:hi:hi]
}

// Root returns the root of the tree containing x. For a root item x itself
// is returned.
func (t *Taxonomy) Root(x item.Item) item.Item { return t.root[x] }

// Level returns the depth of x below its root; roots are level 0.
func (t *Taxonomy) Level(x item.Item) int32 { return t.level[x] }

// Roots returns all root items in ascending order. Shared slice; do not
// modify.
func (t *Taxonomy) Roots() []item.Item { return t.roots }

// Leaves returns all leaf items (no children) in ascending order. Shared
// slice; do not modify.
func (t *Taxonomy) Leaves() []item.Item { return t.leaves }

// IsAncestor reports whether a is a (strict) ancestor of d: a != d and a lies
// on the path from d to its root.
func (t *Taxonomy) IsAncestor(a, d item.Item) bool {
	if a == d || t.root[d] != t.root[a] || t.level[a] >= t.level[d] {
		return false
	}
	cur := t.parent[d]
	for cur != item.None {
		if cur == a {
			return true
		}
		cur = t.parent[cur]
	}
	return false
}

// Ancestors appends the strict ancestors of x (parent first, root last) to
// dst and returns the extended slice.
func (t *Taxonomy) Ancestors(dst []item.Item, x item.Item) []item.Item {
	for cur := t.parent[x]; cur != item.None; cur = t.parent[cur] {
		dst = append(dst, cur)
	}
	return dst
}

// SelfAndAncestors appends x followed by its strict ancestors to dst and
// returns the extended slice.
func (t *Taxonomy) SelfAndAncestors(dst []item.Item, x item.Item) []item.Item {
	return t.Ancestors(append(dst, x), x)
}

// ExtendTransaction computes the Cumulate transaction extension t': the
// items of txn plus all their ancestors, as a canonical (sorted, deduped)
// itemset appended to dst. This is step 2 of Cumulate ("add all ancestors of
// the items in a transaction t ... to t").
func (t *Taxonomy) ExtendTransaction(dst []item.Item, txn []item.Item) []item.Item {
	for _, x := range txn {
		dst = t.SelfAndAncestors(dst, x)
	}
	return item.Dedup(dst)
}

// Fingerprint returns a 64-bit FNV-1a hash of the parent vector — a stable
// identity for the hierarchy. Columnar partition files record the fingerprint
// of the taxonomy they were generated for (txn.CheckTaxonomy refuses to mine
// them under another), and pgarm-mine -follow checks a resumed snapshot's
// hierarchy against the run's the same way.
func (t *Taxonomy) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range t.parent {
		v := uint64(uint32(p))
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// String summarizes the hierarchy shape.
func (t *Taxonomy) String() string {
	return fmt.Sprintf("taxonomy{items:%d roots:%d leaves:%d maxLevel:%d}",
		len(t.parent), len(t.roots), len(t.leaves), t.maxLevel)
}
