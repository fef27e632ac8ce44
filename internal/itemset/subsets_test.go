package itemset

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pgarm/internal/item"
)

// subsetsOf collects the k-subsets of set through one walker, in its order.
func subsetsOf(set []item.Item, k int) [][]item.Item {
	var out [][]item.Item
	var walk Subsets
	for ok := walk.Reset(set, k); ok; ok = walk.Next() {
		out = append(out, item.Clone(walk.Items()))
	}
	return out
}

// bitmaskSubsets is the reference enumerator: the k-subsets of set picked
// by every mask of k bits over its positions, sorted lexicographically.
func bitmaskSubsets(set []item.Item, k int) [][]item.Item {
	var out [][]item.Item
	for m := uint(1); m < 1<<len(set); m++ {
		if bits.OnesCount(m) != k {
			continue
		}
		var s []item.Item
		for i, x := range set {
			if m&(1<<i) != 0 {
				s = append(s, x)
			}
		}
		out = append(out, s)
	}
	slices.SortFunc(out, item.Compare)
	return out
}

func TestSubsetsSmall(t *testing.T) {
	got := subsetsOf([]item.Item{1, 2, 3, 4}, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d subsets", len(got))
	}
	if !item.Equal(got[0], []item.Item{1, 2}) || !item.Equal(got[5], []item.Item{3, 4}) {
		t.Errorf("lexicographic order broken: %v", got)
	}
	var walk Subsets
	if walk.Reset([]item.Item{1}, 2) {
		t.Error("k > n yields a subset")
	}
	if walk.Reset([]item.Item{1}, 0) {
		t.Error("k = 0 yields a subset")
	}
}

// TestSubsetsMatchBitmaskEnumerator: over random canonical transactions and
// k in 0..5 (k = |t| and k > |t| included), one reused walker yields the
// reference's subsets in lexicographic order, each with Hash(sub).
func TestSubsetsMatchBitmaskEnumerator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var walk Subsets
	for round := 0; round < 400; round++ {
		n := rng.Intn(9)
		txn := make([]item.Item, 0, n)
		for len(txn) < n {
			txn = item.Dedup(append(txn, item.Item(rng.Intn(1<<(7*(1+rng.Intn(3)))))))
		}
		for k := 0; k <= 5; k++ {
			want := bitmaskSubsets(txn, k)
			got := 0
			for ok := walk.Reset(txn, k); ok; ok = walk.Next() {
				if got == len(want) {
					t.Fatalf("txn %v k=%d: walk yields more than %d subsets", txn, k, len(want))
				}
				sub := walk.Items()
				if !item.Equal(sub, want[got]) {
					t.Fatalf("txn %v k=%d subset %d: %v, want %v", txn, k, got, sub, want[got])
				}
				if h := walk.Hash(); h != Hash(sub) {
					t.Fatalf("txn %v k=%d subset %v: hash %#x, want %#x", txn, k, sub, h, Hash(sub))
				}
				got++
			}
			if got != len(want) {
				t.Fatalf("txn %v k=%d: walk yields %d subsets, want %d", txn, k, got, len(want))
			}
		}
	}
}
