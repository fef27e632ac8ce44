package itemset

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// pairSets returns n distinct 2-itemsets.
func pairSets(n int) [][]item.Item {
	sets := make([][]item.Item, n)
	for i := range sets {
		sets[i] = []item.Item{item.Item(i / 64), item.Item(100 + i%64)}
	}
	return sets
}

// tableMatchesKeyMap reports whether a Table over sets answers every query as
// a map of the sets' keys does, the first occurrence of a repeated set keeping
// the id. The queries are every stored set (hits), its tail and its extension
// past the universe, every ordered pair over the universe and beyond it — a ≥
// b, negative and past-maxItem items, so mostly misses — and queries of the
// wrong length, nil included.
func tableMatchesKeyMap(t *testing.T, seed int64, numItems int, sets [][]item.Item) bool {
	tab := BuildTable(sets)
	ref := firstIDs(sets)
	check := func(q []item.Item) bool {
		want, ok := ref[Key(q)]
		if !ok {
			want = -1
		}
		if got := tab.Lookup(q); got != want {
			t.Logf("seed %d: Lookup(%v) = %d, want %d", seed, q, got, want)
			return false
		}
		return true
	}
	for _, s := range sets {
		if !check(s) || !check(s[1:]) || !check(append(s[:len(s):len(s)], item.Item(numItems+1))) {
			return false
		}
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

// Property: a Table over a pair list — a dense C_2 (one the Index holds as a
// pair table) and a sparse one alike, shuffled and often carrying a repeated
// set — answers every query as a map of the sets' keys does.
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
		if BuildIndex(sets).pairs.pair != nil {
			dense++
		} else {
			sparse++
		}
		return tableMatchesKeyMap(t, seed, numItems, sets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if dense == 0 || sparse == 0 {
		t.Errorf("pair lists drawn: %d dense, %d sparse; want both", dense, sparse)
	}
}

// Property: a Table over k-set lists of k up to 4, some mixed with
// (k-1)-sets, shuffled and often carrying a repeated set, answers every query
// as a map of the sets' keys does.
func TestTableFlatProbeMatchesMap(t *testing.T) {
	var repeated int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numItems := 5 + rng.Intn(30)
		k := 2 + rng.Intn(3)
		sets := randomSets(rng, numItems, k)
		if rng.Intn(4) == 0 { // a Table does not require one length
			sets = append(sets, randomSets(rng, numItems, k-1)...)
		}
		if len(sets) > 0 && rng.Intn(2) == 0 {
			sets = append(sets, sets[rng.Intn(len(sets))])
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
			repeated++
		}
		return tableMatchesKeyMap(t, seed, numItems, sets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if repeated == 0 {
		t.Error("no list with a repeated set was drawn")
	}
}

// TestFlatProbeIDWidths: at 2^m − 1, 2^m and 2^m + 1 sets the id field
// widens by one bit and the tag narrows; every stored set must still resolve
// to its id, and sets next to the stored ones must miss.
func TestFlatProbeIDWidths(t *testing.T) {
	for _, m := range []int{4, 8, 12} {
		for _, n := range []int{1<<m - 1, 1 << m, 1<<m + 1} {
			sets := pairSets(n)
			tab := BuildTable(sets)
			if want := uint32(1)<<bits.Len(uint(n)) - 1; tab.idMask != want {
				t.Fatalf("n=%d: id mask %#x, want %#x", n, tab.idMask, want)
			}
			for i, s := range sets {
				if got := tab.Lookup(s); got != int32(i) {
					t.Fatalf("n=%d: set %v resolved to %d, want %d", n, s, got, i)
				}
				absent := []item.Item{s[0], s[1] + 1000}
				if got := tab.Lookup(absent); got != -1 {
					t.Fatalf("n=%d: absent set %v resolved to %d", n, absent, got)
				}
			}
		}
	}
}

// TestFlatProbeDuplicateKeepsFirstID: a set listed twice keeps the id of its
// first occurrence, and the later copy takes no slot.
func TestFlatProbeDuplicateKeepsFirstID(t *testing.T) {
	sets := [][]item.Item{{1, 2}, {3, 4}, {1, 2}, {5, 6}, {3, 4}}
	tab := BuildTable(sets)
	for _, c := range []struct {
		s  []item.Item
		id int32
	}{{[]item.Item{1, 2}, 0}, {[]item.Item{3, 4}, 1}, {[]item.Item{5, 6}, 3}} {
		if got := tab.Lookup(c.s); got != c.id {
			t.Errorf("%v resolved to %d, want %d", c.s, got, c.id)
		}
	}
	used := 0
	for _, v := range tab.slots {
		if v != 0 {
			used++
		}
	}
	if used != 3 {
		t.Errorf("%d slots used, want 3", used)
	}
}

// TestFlatProbeTagCollision: an absent set probed under a stored set's hash
// meets that set at its home slot with a matching tag, so only the item
// comparison can tell them apart; it must miss. The stored set under its own
// hash must still hit.
func TestFlatProbeTagCollision(t *testing.T) {
	sets := pairSets(40)
	tab := BuildTable(sets)
	for i, s := range sets {
		h := flatHash(s)
		absent := []item.Item{s[0], s[1] + 1000}
		if got := tab.find(absent, h); got != -1 {
			t.Fatalf("absent %v under the hash of %v resolved to %d", absent, s, got)
		}
		if got := tab.find(s, h); got != int32(i) {
			t.Fatalf("%v resolved to %d, want %d", s, got, i)
		}
	}
}

// TestFlatProbeEmpty: a Table over no sets answers every lookup with -1.
func TestFlatProbeEmpty(t *testing.T) {
	tab := BuildTable(nil)
	for _, q := range [][]item.Item{{1, 2}, {0}, nil} {
		if got := tab.Lookup(q); got != -1 {
			t.Errorf("empty table: Lookup(%v) = %d", q, got)
		}
	}
}
