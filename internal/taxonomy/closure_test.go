package taxonomy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pgarm/internal/item"
)

// randomForest builds a forest of n items whose ids are a random
// permutation of a parent-before-child order, so a parent's id may be above
// or below its child's.
func randomForest(rng *rand.Rand, n int) *Taxonomy {
	order := make([]item.Item, n) // order[i] = parent in build order
	for i := range order {
		order[i] = item.None
		if i > 0 && rng.Intn(6) != 0 {
			order[i] = item.Item(rng.Intn(i))
		}
	}
	perm := rng.Perm(n)
	parent := make([]item.Item, n)
	for i, p := range order {
		parent[perm[i]] = item.None
		if p != item.None {
			parent[perm[i]] = item.Item(perm[p])
		}
	}
	return MustNew(parent)
}

// randomTxn draws a transaction with duplicates and, often, an item together
// with one of its own ancestors, in no particular order.
func randomTxn(rng *rand.Rand, tax *Taxonomy) []item.Item {
	n := tax.NumItems()
	txn := make([]item.Item, 0, 12)
	for j := rng.Intn(10); j >= 0; j-- {
		txn = append(txn, item.Item(rng.Intn(n)))
	}
	if rng.Intn(2) == 0 {
		txn = append(txn, txn[rng.Intn(len(txn))]) // a duplicate
	}
	if x := txn[0]; rng.Intn(2) == 0 && tax.Parent(x) != item.None {
		anc := tax.Ancestors(nil, x)
		txn = append(txn, anc[rng.Intn(len(anc))]) // an item and its ancestor
	}
	rng.Shuffle(len(txn), func(a, b int) { txn[a], txn[b] = txn[b], txn[a] })
	return txn
}

func allZero(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestClosureExtendMatchesReference: over seeded random forests, Extend
// returns exactly the sorted ExtendTransaction(txn) ∩ keep for empty, full
// and random keep sets (random ones are in general not ancestor-closed), and
// leaves its bitset all zero after every call.
func TestClosureExtendMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := randomForest(rng, 1+rng.Intn(300))
		n := tax.NumItems()
		keeps := map[string][]bool{"empty": make([]bool, n), "full": make([]bool, n)}
		for i := range keeps["full"] {
			keeps["full"][i] = true
		}
		for _, p := range []int{10, 50, 90} {
			keep := make([]bool, n)
			for i := range keep {
				keep[i] = rng.Intn(100) < p
			}
			keeps[fmt.Sprintf("random%d", p)] = keep
		}
		for name, keep := range keeps {
			c := KeepClosure(tax, keep)
			set := make([]uint64, c.Words())
			var got, want []item.Item
			for i := 0; i < 200; i++ {
				txn := randomTxn(rng, tax)
				want = want[:0]
				for _, x := range tax.ExtendTransaction(nil, txn) {
					if keep[x] {
						want = append(want, x)
					}
				}
				got = c.Extend(got[:0], txn, set)
				if !item.Equal(got, want) {
					t.Fatalf("seed %d keep %s txn %v: Extend = %v, want %v", seed, name, txn, got, want)
				}
				if !allZero(set) {
					t.Fatalf("seed %d keep %s txn %v: bitset not cleared", seed, name, txn)
				}
			}
		}
	}
}

// TestSetsClosureIsKeepClosure: the closure built from a candidate arena is
// the one built from the flags of its items.
func TestSetsClosureIsKeepClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tax := randomForest(rng, 200)
	keep := make([]bool, tax.NumItems())
	var arena []item.Item
	for i := 0; i < 30; i++ {
		x, y := item.Item(rng.Intn(200)), item.Item(rng.Intn(200))
		keep[x], keep[y] = true, true
		arena = append(arena, x, y)
	}
	if got, want := SetsClosure(tax, arena), KeepClosure(tax, keep); !reflect.DeepEqual(got, want) {
		t.Errorf("SetsClosure = %+v, want %+v", got, want)
	}
}

// TestClosureExtendAppends: Extend appends after what dst already holds.
func TestClosureExtendAppends(t *testing.T) {
	tax := figureTree(t)
	keep := make([]bool, tax.NumItems())
	for i := range keep {
		keep[i] = true
	}
	c := KeepClosure(tax, keep)
	got := c.Extend([]item.Item{99}, []item.Item{10, 9}, make([]uint64, c.Words()))
	if !item.Equal(got, []item.Item{99, 0, 1, 3, 5, 9, 10}) {
		t.Errorf("Extend = %v", got)
	}
}

// TestClosureRanks: a rank vector as the slot table, emitting ranks, gives
// the large closure items' ranks in ascending order — FP-Growth's forest
// insertion order — with no sort.
func TestClosureRanks(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := randomForest(rng, 1+rng.Intn(300))
		n := tax.NumItems()
		rank := make([]int32, n)
		var large []int
		for i := range rank {
			rank[i] = -1
			if rng.Intn(3) != 0 {
				large = append(large, i)
			}
		}
		rng.Shuffle(len(large), func(a, b int) { large[a], large[b] = large[b], large[a] })
		ranks := make([]item.Item, len(large))
		for r, x := range large {
			rank[x] = int32(r)
			ranks[r] = item.Item(r)
		}
		c := NewClosure(tax, rank, ranks)
		set := make([]uint64, c.Words())
		var got, want []item.Item
		for i := 0; i < 200; i++ {
			txn := randomTxn(rng, tax)
			want = want[:0]
			for _, x := range tax.ExtendTransaction(nil, txn) {
				if r := rank[x]; r >= 0 {
					want = append(want, item.Item(r))
				}
			}
			slices.Sort(want)
			got = c.Extend(got[:0], txn, set)
			if !item.Equal(got, want) {
				t.Fatalf("seed %d txn %v: Extend = %v, want %v", seed, txn, got, want)
			}
			if !allZero(set) {
				t.Fatalf("seed %d txn %v: bitset not cleared", seed, txn)
			}
		}
	}
}

// TestCountClosureMatchesReference: CountClosure bumps exactly the items of
// ExtendTransaction(txn), once each, and leaves its bitset all zero.
func TestCountClosureMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := randomForest(rng, 1+rng.Intn(300))
		got := make([]int64, tax.NumItems())
		want := make([]int64, tax.NumItems())
		seen := make([]uint64, tax.ItemWords())
		for i := 0; i < 200; i++ {
			txn := randomTxn(rng, tax)
			for _, x := range tax.ExtendTransaction(nil, txn) {
				want[x]++
			}
			tax.CountClosure(got, txn, seen)
			if !allZero(seen) {
				t.Fatalf("seed %d txn %v: bitset not cleared", seed, txn)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: CountClosure = %v, want %v", seed, got, want)
		}
	}
}
