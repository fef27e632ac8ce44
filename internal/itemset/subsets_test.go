package itemset

import (
	"math/rand"
	"testing"

	"pgarm/internal/item"
)

// TestSubsetsMatchForEachSubset: over random canonical transactions and
// k in 0..5 (k = |t| and k > |t| included), one reused walker yields
// ForEachSubset's subsets in ForEachSubset's order, each with Hash(sub).
func TestSubsetsMatchForEachSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var walk Subsets
	for round := 0; round < 400; round++ {
		n := rng.Intn(9)
		txn := make([]item.Item, 0, n)
		for len(txn) < n {
			txn = item.Dedup(append(txn, item.Item(rng.Intn(1<<(7*(1+rng.Intn(3)))))))
		}
		for k := 0; k <= 5; k++ {
			var want [][]item.Item
			ForEachSubset(txn, k, func(s []item.Item) bool {
				want = append(want, item.Clone(s))
				return true
			})
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
