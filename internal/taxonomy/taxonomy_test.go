package taxonomy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// paperTree builds the hierarchy of the paper's Figure 4/6 examples:
//
//	roots 1, 2, 3; children 4,5 under 1, 6 under 2 (paper numbering).
//
// We use 0-based ids: three trees with the same shape used across tests.
func figureTree(t *testing.T) *Taxonomy {
	t.Helper()
	// ids:      0    1    2    3  4  5  6  7  8  9  10
	// parents:  -    -    -    0  0  1  2  2  3  3  5
	parents := []item.Item{item.None, item.None, item.None, 0, 0, 1, 2, 2, 3, 3, 5}
	return MustNew(parents)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]item.Item{0}); err == nil {
		t.Error("self-parent must fail")
	}
	if _, err := New([]item.Item{5}); err == nil {
		t.Error("out-of-range parent must fail")
	}
	if _, err := New([]item.Item{1, 0}); err == nil {
		t.Error("2-cycle must fail")
	}
	if _, err := New(nil); err != nil {
		t.Errorf("empty taxonomy should build: %v", err)
	}
}

func TestBasicRelations(t *testing.T) {
	tax := figureTree(t)
	if tax.NumItems() != 11 {
		t.Fatalf("NumItems = %d", tax.NumItems())
	}
	if got := tax.Parent(3); got != 0 {
		t.Errorf("Parent(3) = %v", got)
	}
	if got := tax.Parent(0); got != item.None {
		t.Errorf("Parent(0) = %v", got)
	}
	if got := tax.Root(10); got != 1 {
		t.Errorf("Root(10) = %v", got)
	}
	if got := tax.Root(8); got != 0 {
		t.Errorf("Root(8) = %v", got)
	}
	if got := tax.Level(10); got != 2 {
		t.Errorf("Level(10) = %d", got)
	}
	if got := maxLevel(tax); got != 2 {
		t.Errorf("deepest level = %d", got)
	}
	if !item.Equal(tax.Roots(), []item.Item{0, 1, 2}) {
		t.Errorf("Roots = %v", tax.Roots())
	}
	if tax.Parent(1) != item.None || tax.Parent(3) == item.None {
		t.Error("Parent of a root / non-root wrong")
	}
	if len(tax.Children(4)) != 0 || len(tax.Children(3)) == 0 {
		t.Error("Children of a leaf / interior item wrong")
	}
	leaves := tax.Leaves()
	for _, l := range leaves {
		if len(tax.Children(l)) != 0 {
			t.Errorf("leaf %v has children", l)
		}
	}
}

func TestAncestry(t *testing.T) {
	tax := figureTree(t)
	if !tax.IsAncestor(0, 8) {
		t.Error("0 is ancestor of 8 via 3")
	}
	if !tax.IsAncestor(3, 9) {
		t.Error("3 is parent of 9")
	}
	if tax.IsAncestor(8, 0) {
		t.Error("descendant is not ancestor")
	}
	if tax.IsAncestor(5, 5) {
		t.Error("no item is its own ancestor (acyclicity)")
	}
	if tax.IsAncestor(1, 8) {
		t.Error("different trees")
	}
	anc := tax.Ancestors(nil, 10)
	if !item.Equal(anc, []item.Item{5, 1}) {
		t.Errorf("Ancestors(10) = %v", anc)
	}
	sa := tax.SelfAndAncestors(nil, 10)
	if !item.Equal(sa, []item.Item{10, 5, 1}) {
		t.Errorf("SelfAndAncestors(10) = %v", sa)
	}
	if got := tax.Ancestors(nil, 0); len(got) != 0 {
		t.Errorf("root has ancestors: %v", got)
	}
}

func TestExtendTransaction(t *testing.T) {
	tax := figureTree(t)
	got := tax.ExtendTransaction(nil, []item.Item{10, 8})
	if !item.Equal(got, []item.Item{0, 1, 3, 5, 8, 10}) {
		t.Errorf("ExtendTransaction = %v", got)
	}
	// Deduplication when items share ancestors.
	got = tax.ExtendTransaction(nil, []item.Item{8, 9})
	if !item.Equal(got, []item.Item{0, 3, 8, 9}) {
		t.Errorf("ExtendTransaction shared ancestors = %v", got)
	}
}

func TestBuilder(t *testing.T) {
	var b Builder
	r := b.AddRoot()
	c1 := b.AddChild(r)
	c2 := b.AddChild(c1)
	tax := b.MustBuild()
	if tax.Root(c2) != r {
		t.Errorf("Root(%v) = %v, want %v", c2, tax.Root(c2), r)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("AddChild with unknown parent should panic")
		}
	}()
	b.AddChild(99)
}

func TestBalancedShape(t *testing.T) {
	tax := MustBalanced(30, 3, 3)
	if tax.NumItems() != 30 {
		t.Fatalf("NumItems = %d", tax.NumItems())
	}
	if len(tax.Roots()) != 3 {
		t.Fatalf("roots = %d", len(tax.Roots()))
	}
	// Paper shapes: level count grows as fanout shrinks.
	deep := MustBalanced(30000, 30, 3)
	mid := MustBalanced(30000, 30, 5)
	shallow := MustBalanced(30000, 30, 10)
	if !(maxLevel(deep) > maxLevel(mid) && maxLevel(mid) > maxLevel(shallow)) {
		t.Errorf("level ordering wrong: F3=%d F5=%d F10=%d",
			maxLevel(deep), maxLevel(mid), maxLevel(shallow))
	}
	// Table 5 reports levels 5-6 (F5), 6-7 (F3), 3-4 (F10); Level is
	// 0-based depth, so levels = deepest Level + 1.
	if l := maxLevel(mid) + 1; l < 5 || l > 6 {
		t.Errorf("R30F5 levels = %d, want 5-6", l)
	}
	if l := maxLevel(deep) + 1; l < 6 || l > 7 {
		t.Errorf("R30F3 levels = %d, want 6-7", l)
	}
	if l := maxLevel(shallow) + 1; l < 3 || l > 4 {
		t.Errorf("R30F10 levels = %d, want 3-4", l)
	}
}

func TestBalancedValidation(t *testing.T) {
	if _, err := Balanced(2, 5, 3); err == nil {
		t.Error("fewer items than roots must fail")
	}
	if _, err := Balanced(10, 0, 3); err == nil {
		t.Error("zero roots must fail")
	}
	if _, err := Balanced(10, 2, 0); err == nil {
		t.Error("zero fanout must fail")
	}
}

// Property: in any balanced taxonomy, every item's root is a root, level
// equals the parent-chain length, and IsAncestor agrees with the chain walk.
func TestHierarchyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tax := MustBalanced(50+rng.Intn(500), 1+rng.Intn(8), 1+rng.Intn(6))
		for i := 0; i < tax.NumItems(); i++ {
			x := item.Item(i)
			r := tax.Root(x)
			if tax.Parent(r) != item.None {
				return false
			}
			chain := tax.SelfAndAncestors(nil, x)
			if chain[len(chain)-1] != r {
				return false
			}
			if int(tax.Level(x)) != len(chain)-1 {
				return false
			}
			for _, a := range chain[1:] {
				if !tax.IsAncestor(a, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestView(t *testing.T) {
	tax := figureTree(t)
	large := make([]bool, tax.NumItems())
	large[0] = true // root of tree 0
	large[3] = true // interior
	large[5] = true // interior tree 1
	v := NewView(tax, large, nil)
	// One-item transactions read the replacement of each item on its own.
	for _, c := range []struct {
		x    item.Item
		want []item.Item
		why  string
	}{
		{8, []item.Item{3}, "closest large ancestor"},
		{3, []item.Item{3}, "large items map to themselves"},
		{4, []item.Item{0}, "root 0 is the only large ancestor"},
		{6, nil, "tree 2 has no large items"},
	} {
		if got := v.ReplaceWithLarge(nil, []item.Item{c.x}); !item.Equal(got, c.want) {
			t.Errorf("ReplaceWithLarge({%v}) = %v, want %v (%s)", c.x, got, c.want, c.why)
		}
	}
	rep := v.ReplaceWithLarge(nil, []item.Item{8, 9, 6})
	if !item.Equal(rep, []item.Item{3}) {
		t.Errorf("ReplaceWithLarge = %v, want {3} (8,9 -> 3 deduped, 6 dropped)", rep)
	}
}

// TestViewClosure: the view's keep-set closure adds only kept ancestors and
// keeps a transaction item only when it is kept itself; a view built without
// a keep set has no closure, and one without L_1 no replacement table.
func TestViewClosure(t *testing.T) {
	tax := figureTree(t)
	large := make([]bool, tax.NumItems())
	for i := range large {
		large[i] = true
	}
	keep := make([]bool, tax.NumItems())
	keep[3] = true // ancestor 3 survives pruning, root 0 does not
	keep[8] = true // the transaction item is a candidate member
	v := NewView(tax, large, keep)
	set := make([]uint64, v.Closure().Words())
	got := v.Closure().Extend(nil, []item.Item{8}, set)
	if !item.Equal(got, []item.Item{3, 8}) {
		t.Errorf("Extend = %v, want {3,8} (ancestor 0 pruned)", got)
	}
	if got := v.Closure().Extend(nil, []item.Item{3}, set); !item.Equal(got, []item.Item{3}) {
		t.Errorf("Extend({3}) = %v, want {3} (3 kept)", got)
	}
	if got := v.Closure().Extend(nil, []item.Item{0}, set); len(got) != 0 {
		t.Errorf("Extend({0}) = %v, want {} (0 not kept)", got)
	}
	// A keep set of every item keeps the whole closure.
	all := NewView(tax, nil, large)
	got = all.Closure().Extend(nil, []item.Item{8}, make([]uint64, all.Closure().Words()))
	if !item.Equal(got, []item.Item{0, 3, 8}) {
		t.Errorf("Extend full keep = %v", got)
	}
	if NewView(tax, large, nil).Closure() != nil {
		t.Error("a view without a keep set built a closure")
	}
	if NewView(tax, nil, keep).nearestLarge != nil {
		t.Error("a view without L_1 built the replacement table")
	}
}

// maxLevel returns the depth of the deepest item.
func maxLevel(t *Taxonomy) int32 {
	var d int32
	for i := 0; i < t.NumItems(); i++ {
		d = max(d, t.Level(item.Item(i)))
	}
	return d
}

// TestChildrenMatchParentVector: on random forests whose parents may sit above
// or below their children's ids, Children(x) is exactly the items whose
// parent is x, ascending, with no spare capacity; Leaves and Roots are the
// childless and parentless items. New allocates a fixed number of arrays,
// however many items have children.
func TestChildrenMatchParentVector(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		tax := randomForest(rng, 1+rng.Intn(300))
		var leaves, roots []item.Item
		for x := item.Item(0); int(x) < tax.NumItems(); x++ {
			var want []item.Item
			for c := item.Item(0); int(c) < tax.NumItems(); c++ {
				if tax.Parent(c) == x {
					want = append(want, c)
				}
			}
			got := tax.Children(x)
			if !item.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("trial %d: Children(%d) = %v (cap %d), want %v", trial, x, got, cap(got), want)
			}
			if len(want) == 0 {
				leaves = append(leaves, x)
			}
			if tax.Parent(x) == item.None {
				roots = append(roots, x)
			}
		}
		if !item.Equal(tax.Leaves(), leaves) || !item.Equal(tax.Roots(), roots) {
			t.Fatalf("trial %d: Leaves %v Roots %v, want %v %v", trial, tax.Leaves(), tax.Roots(), leaves, roots)
		}
	}
	for _, n := range []int{100, 10000} {
		parent := MustBalanced(n, 5, 3).parent
		if a := testing.AllocsPerRun(5, func() { MustNew(parent) }); a > 8 {
			t.Errorf("New over %d items: %.0f allocs, want <= 8", n, a)
		}
	}
}
