package itemset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// Property: a k = 2 Lookup, over a dense C_2 (pair table) and a sparse one
// (flat probe) alike, answers every query as a map of the sets' keys does:
// every ordered pair of the universe and beyond it (so a ≥ b, negative and
// beyond-maxItem items), and queries of the wrong length. Sets may be
// shuffled and carry a duplicate; the first occurrence keeps the id.
func TestLookupPairsMatchesKeyMap(t *testing.T) {
	var dense, sparse int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numItems := 3 + rng.Intn(30)
		sets := randomSets(rng, numItems, 2)
		if len(sets) > 0 && rng.Intn(2) == 0 {
			sets = append(sets, sets[rng.Intn(len(sets))])
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		}
		ix := BuildIndex(sets)
		if ix.pairs.pair != nil {
			dense++
		} else {
			sparse++
		}
		ref := firstIDs(sets)
		check := func(q []item.Item) bool {
			want, ok := ref[Key(q)]
			if !ok {
				want = -1
			}
			if got := ix.Lookup(q); got != want {
				t.Logf("seed %d dense=%v: Lookup(%v) = %d, want %d", seed, ix.pairs.pair != nil, q, got, want)
				return false
			}
			return true
		}
		for a := item.Item(-2); a < item.Item(numItems+2); a++ {
			for b := item.Item(-2); b < item.Item(numItems+2); b++ {
				if !check([]item.Item{a, b}) {
					return false
				}
			}
			if !check([]item.Item{a}) || !check([]item.Item{a, a + 1, a + 2}) {
				return false
			}
		}
		return check(nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if dense == 0 || sparse == 0 {
		t.Errorf("structures drawn: %d dense, %d sparse; want both", dense, sparse)
	}
}

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
// duplicate, and every pair maps to its first occurrence's id. Half full is
// the boundary: one set fewer keeps the prefix layout and the flat probe.
func TestDenseC2Structure(t *testing.T) {
	full := allPairs(1, 3, 4, 7, 9)
	shuffled := append(slices.Clone(full), full[6])
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for name, sets := range map[string][][]item.Item{"sorted": full, "shuffled": shuffled} {
		ix := BuildIndex(sets)
		if ix.pairs.pair == nil || ix.idx.slots != nil || ix.pre.k != 0 {
			t.Fatalf("%s: full C_2 kept pair table %v, hash %v, trie k=%d; want the table alone",
				name, ix.pairs.pair != nil, ix.idx.slots != nil, ix.pre.k)
		}
		if len(ix.pairs.pair) != len(full) {
			t.Errorf("%s: pair table has %d entries, want %d", name, len(ix.pairs.pair), len(full))
		}
		ref := firstIDs(sets)
		for _, s := range sets {
			if got, want := ix.Lookup(s), ref[Key(s)]; got != want {
				t.Errorf("%s: Lookup(%v) = %d, want first occurrence %d", name, s, got, want)
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
	if ix.pairs.pair != nil || ix.idx.slots == nil || ix.pre.k != 2 {
		t.Errorf("13 of 28 pairs: pair table %v, hash %v, trie k=%d; want the hash and the trie",
			ix.pairs.pair != nil, ix.idx.slots != nil, ix.pre.k)
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
