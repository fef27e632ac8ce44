package itemset

import (
	"math/bits"
	"testing"

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

// TestFlatProbeIDWidths: at 2^m − 1, 2^m and 2^m + 1 sets the id field
// widens by one bit and the tag narrows; every stored set must still resolve
// to its id, and sets next to the stored ones must miss.
func TestFlatProbeIDWidths(t *testing.T) {
	for _, m := range []int{4, 8, 12} {
		for _, n := range []int{1<<m - 1, 1 << m, 1<<m + 1} {
			sets := pairSets(n)
			var f flatProbe
			f.fill(sets)
			if want := uint32(1)<<bits.Len(uint(n)) - 1; f.idMask != want {
				t.Fatalf("n=%d: id mask %#x, want %#x", n, f.idMask, want)
			}
			for i, s := range sets {
				if got := f.findItems(s, sets); got != int32(i) {
					t.Fatalf("n=%d: set %v resolved to %d, want %d", n, s, got, i)
				}
				absent := []item.Item{s[0], s[1] + 1000}
				if got := f.findItems(absent, sets); got != -1 {
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
	var f flatProbe
	f.fill(sets)
	for _, c := range []struct {
		s  []item.Item
		id int32
	}{{[]item.Item{1, 2}, 0}, {[]item.Item{3, 4}, 1}, {[]item.Item{5, 6}, 3}} {
		if got := f.findItems(c.s, sets); got != c.id {
			t.Errorf("%v resolved to %d, want %d", c.s, got, c.id)
		}
	}
	used := 0
	for _, v := range f.slots {
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
	var f flatProbe
	f.fill(sets)
	for i, s := range sets {
		h := flatHash(s)
		absent := []item.Item{s[0], s[1] + 1000}
		if got := f.find(absent, h, sets); got != -1 {
			t.Fatalf("absent %v under the hash of %v resolved to %d", absent, s, got)
		}
		if got := f.find(s, h, sets); got != int32(i) {
			t.Fatalf("%v resolved to %d, want %d", s, got, i)
		}
	}
}

// TestFlatProbeEmpty: an index over no sets, and a probe never filled,
// answer every lookup with -1.
func TestFlatProbeEmpty(t *testing.T) {
	q := []item.Item{1, 2}
	if got := BuildIndex(nil).Lookup(q); got != -1 {
		t.Errorf("empty index: Lookup = %d", got)
	}
	var zero flatProbe
	if got := zero.findItems(q, nil); got != -1 {
		t.Errorf("unfilled probe: findItems = %d", got)
	}
	var f flatProbe
	f.fill(nil)
	if got := f.findItems(q, nil); got != -1 {
		t.Errorf("empty probe: findItems = %d", got)
	}
}
