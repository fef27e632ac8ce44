package taxonomy

import "pgarm/internal/item"

// View is a per-pass overlay on a Taxonomy holding the two transaction
// transforms a pass applies before counting:
//
//  1. the "closest-to-bottom large ancestor" replacement used by the H-HPGM
//     family (small items are replaced by their nearest large ancestor, or
//     dropped when no ancestor is large), and
//  2. the candidate-pruned ancestor closure: "delete any ancestors in T that
//     are not present in any of the candidates in C_k", applied together with
//     the filter to candidate members, as one Closure over the keep set.
//
// A view builds only the tables it is given inputs for. A View is built once
// per pass (the replacement once per mine, since L_1 is fixed at the pass-1
// barrier) and is then read-only, safe for concurrent use by all node
// goroutines.
type View struct {
	tax *Taxonomy
	// nearestLarge[i] = i if i is large, else the closest large strict
	// ancestor of i, else item.None. nil when the view was built without L_1.
	nearestLarge []item.Item
	// closure emits a transaction's closure restricted to the keep set. nil
	// when the view was built without one.
	closure *Closure
}

// NewView builds a view for one pass. large, if non-nil, flags the large
// items (members of L_1) and enables ReplaceWithLarge. keep, if non-nil,
// flags the items that appear in some current candidate and enables
// Closure: KeepClosure(t, keep), which keeps a transaction item or ancestor
// exactly when it is flagged.
func NewView(t *Taxonomy, large []bool, keep []bool) *View {
	v := &View{tax: t}
	if large != nil {
		v.nearestLarge = make([]item.Item, t.NumItems())
		for i := range v.nearestLarge {
			x := item.Item(i)
			for x != item.None && !large[x] {
				x = t.Parent(x)
			}
			v.nearestLarge[i] = x
		}
	}
	if keep != nil {
		v.closure = KeepClosure(t, keep)
	}
	return v
}

// Taxonomy returns the underlying hierarchy.
func (v *View) Taxonomy() *Taxonomy { return v.tax }

// Closure returns the view's keep-set closure, or nil when the view was
// built without a keep set.
func (v *View) Closure() *Closure { return v.closure }

// NearestLarge returns x itself if large, otherwise the closest large
// ancestor of x, otherwise item.None. The view must have been built with L_1.
func (v *View) NearestLarge(x item.Item) item.Item { return v.nearestLarge[x] }

// ReplaceWithLarge computes the H-HPGM transaction form t' (Figure 5 line
// (8)): each item of txn is replaced by the large item among its ancestors
// closest to the bottom of the hierarchy; items with no large ancestor are
// dropped. The result is canonical (sorted, deduped), appended to dst. The
// view must have been built with L_1.
func (v *View) ReplaceWithLarge(dst []item.Item, txn []item.Item) []item.Item {
	for _, x := range txn {
		if y := v.nearestLarge[x]; y != item.None {
			dst = append(dst, y)
		}
	}
	return item.Dedup(dst)
}
