package itemset

import (
	"math/rand"
	"slices"
	"testing"

	"pgarm/internal/item"
)

// allPairs returns every canonical pair over items, in sorted order.
func allPairs(items ...item.Item) [][]item.Item {
	var sets [][]item.Item
	for i, a := range items {
		for _, b := range items[i+1:] {
			sets = append(sets, []item.Item{a, b})
		}
	}
	return sets
}

// A full C_2 builds the pair table alone, whether sorted or shuffled with a
// duplicate, and every pair counts under its first occurrence's id. Half
// full is the boundary: one set fewer keeps the prefix layout.
func TestDenseC2Structure(t *testing.T) {
	full := allPairs(1, 3, 4, 7, 9)
	shuffled := append(slices.Clone(full), full[6])
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for name, sets := range map[string][][]item.Item{"sorted": full, "shuffled": shuffled} {
		ix := BuildIndex(sets)
		if ix.pairs.pair == nil || ix.pre.k != 0 {
			t.Fatalf("%s: full C_2 kept pair table %v, trie k=%d; want the table alone",
				name, ix.pairs.pair != nil, ix.pre.k)
		}
		if len(ix.pairs.pair) != len(full) {
			t.Errorf("%s: pair table has %d entries, want %d", name, len(ix.pairs.pair), len(full))
		}
		ref := firstIDs(sets)
		var stamps Stamps
		for _, s := range sets {
			counts := make([]int64, ix.Len())
			ix.CountContained(s, counts, &stamps)
			if want := ref[Key(s)]; counts[want] != 1 || slices.IndexFunc(counts, func(c int64) bool { return c != 0 }) != int(want) {
				t.Errorf("%s: %v counted into %v, want only its first occurrence %d", name, s, counts, want)
			}
		}
	}

	// Eight items offer 28 pairs; the first four sets cover all eight.
	items := []item.Item{0, 1, 2, 3, 4, 5, 6, 7}
	var half [][]item.Item
	for i := 0; i < 8; i += 2 {
		half = append(half, []item.Item{items[i], items[i+1]})
	}
	for _, p := range allPairs(items...) {
		if len(half) == 14 {
			break
		}
		if p[1] != p[0]+1 || p[0]%2 == 1 {
			half = append(half, p)
		}
	}
	SortSets(half)
	if ix := BuildIndex(half); ix.pairs.pair == nil {
		t.Errorf("14 of 28 pairs: no pair table, want one")
	}
	below := slices.Delete(slices.Clone(half), 5, 6) // drops {0, 6}; {6, 7} keeps item 6
	ix := BuildIndex(below)
	if ix.pairs.pair != nil || ix.pre.k != 2 {
		t.Errorf("13 of 28 pairs: pair table %v, trie k=%d; want the trie",
			ix.pairs.pair != nil, ix.pre.k)
	}
}

// On the pair table, items outside the table form no pairs: a transaction
// made only of them counts nothing, and interleaved ones leave exactly the
// pairs of the table's items.
func TestDenseC2IgnoresItemsOutsideTable(t *testing.T) {
	ix := BuildIndex(allPairs(2, 3, 5))
	if ix.pairs.pair == nil {
		t.Fatal("full C_2 built no pair table")
	}
	counts := make([]int64, ix.Len())
	var stamps Stamps
	if hits := ix.CountContained([]item.Item{0, 1, 4, 6, 8, 100}, counts, &stamps); hits != 0 {
		t.Errorf("outside items: hits = %d, want 0", hits)
	}
	if !slices.Equal(counts, []int64{0, 0, 0}) {
		t.Errorf("outside items: counts = %v, want none", counts)
	}
	if hits := ix.CountContained([]item.Item{0, 2, 4, 5, 9}, counts, &stamps); hits != 1 {
		t.Errorf("interleaved items: hits = %d, want 1", hits)
	}
	if want := []int64{0, 1, 0}; !slices.Equal(counts, want) {
		t.Errorf("interleaved items: counts = %v, want %v", counts, want)
	}
}

// One pair table is shared read-only by every scan worker: four workers
// counting the same transactions at once, each with its own Stamps and
// counts, must each get the sequential count vector. Run under -race.
func TestDenseC2ConcurrentCount(t *testing.T) {
	ix := BuildIndex(allPairs(0, 2, 3, 5, 8, 9, 11))
	rng := rand.New(rand.NewSource(3))
	var txns [][]item.Item
	for i := 0; i < 200; i++ {
		var basket []item.Item
		for j := rng.Intn(9); j > 0; j-- {
			basket = append(basket, item.Item(rng.Intn(14)))
		}
		txns = append(txns, item.Dedup(basket))
	}
	want := make([]int64, ix.Len())
	var stamps Stamps
	for _, txn := range txns {
		ix.CountContained(txn, want, &stamps)
	}
	got := make([][]int64, 4)
	if err := Fan("count", len(got), nil, func(w int) error {
		got[w] = make([]int64, ix.Len())
		var st Stamps
		for _, txn := range txns {
			ix.CountContained(txn, got[w], &st)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w, counts := range got {
		if !slices.Equal(counts, want) {
			t.Errorf("worker %d: counts = %v, want %v", w, counts, want)
		}
	}
}
