package itemset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

func TestKeyOrderMatchesItemsetOrder(t *testing.T) {
	a := Key([]item.Item{1, 2})
	b := Key([]item.Item{1, 3})
	c := Key([]item.Item{2, 0})
	if !(a < b && b < c) {
		t.Errorf("key ordering broken: %q %q %q", a, b, c)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	s := []item.Item{3, 9, 1000}
	if string(AppendKey(nil, s)) != Key(s) {
		t.Error("AppendKey and Key disagree")
	}
}

func TestHashStability(t *testing.T) {
	s := []item.Item{4, 7, 22}
	if Hash(s) != Hash(append([]item.Item(nil), s...)) {
		t.Error("Hash must depend only on contents")
	}
	if Hash([]item.Item{1, 2}) == Hash([]item.Item{2, 1}) {
		t.Error("order must matter (canonical input assumed, collision this cheap is a bug)")
	}
}

func TestGenJoinPrune(t *testing.T) {
	// L2 = {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3} (kept: all subsets
	// large) and {2,3,4} (pruned: {3,4} not in L2).
	prev := [][]item.Item{{1, 2}, {1, 3}, {2, 3}, {2, 4}}
	got := Gen(prev)
	if len(got) != 1 || !item.Equal(got[0], []item.Item{1, 2, 3}) {
		t.Errorf("Gen = %v, want [{1,2,3}]", got)
	}
	if Gen(nil) != nil {
		t.Error("Gen(nil) should be nil")
	}
}

func TestGenFromSingletons(t *testing.T) {
	prev := [][]item.Item{{3}, {1}, {2}}
	got := Gen(prev)
	want := [][]item.Item{{1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Gen singles = %v", got)
	}
	for i := range want {
		if !item.Equal(got[i], want[i]) {
			t.Errorf("Gen[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPairs(t *testing.T) {
	got := Pairs([]item.Item{1, 4, 9})
	want := [][]item.Item{{1, 4}, {1, 9}, {4, 9}}
	if len(got) != len(want) {
		t.Fatalf("Pairs = %v", got)
	}
	for i := range want {
		if !item.Equal(got[i], want[i]) {
			t.Errorf("Pairs[%d] = %v", i, got[i])
		}
	}
}

func TestForEachSubset(t *testing.T) {
	var got [][]item.Item
	ForEachSubset([]item.Item{1, 2, 3, 4}, 2, func(s []item.Item) bool {
		got = append(got, item.Clone(s))
		return true
	})
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d subsets", len(got))
	}
	if !item.Equal(got[0], []item.Item{1, 2}) || !item.Equal(got[5], []item.Item{3, 4}) {
		t.Errorf("lexicographic order broken: %v", got)
	}
	// Early stop.
	n := 0
	ForEachSubset([]item.Item{1, 2, 3, 4}, 2, func([]item.Item) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop after %d", n)
	}
	// Degenerate sizes.
	ForEachSubset([]item.Item{1}, 2, func([]item.Item) bool { t.Error("k>n yields nothing"); return true })
	ForEachSubset([]item.Item{1}, 0, func([]item.Item) bool { t.Error("k=0 yields nothing"); return true })
}

// Property: apriori-gen output is sorted, canonical, and every (k-1)-subset
// of every candidate is in the input.
func TestGenProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random L2 over a small universe.
		var prev [][]item.Item
		seen := map[string]bool{}
		for i := 0; i < 30; i++ {
			a, b := item.Item(rng.Intn(10)), item.Item(rng.Intn(10))
			if a == b {
				continue
			}
			s := item.Dedup([]item.Item{a, b})
			k := Key(s)
			if !seen[k] {
				seen[k] = true
				prev = append(prev, s)
			}
		}
		out := Gen(prev)
		for i, c := range out {
			if !item.IsSorted(c) || len(c) != 3 {
				return false
			}
			if i > 0 && item.Compare(out[i-1], c) >= 0 {
				return false
			}
			ok := true
			ForEachSubset(c, 2, func(s []item.Item) bool {
				if !seen[Key(s)] {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortCounted(t *testing.T) {
	cs := []Counted{
		{Items: []item.Item{2, 3}, Count: 1},
		{Items: []item.Item{1, 9}, Count: 2},
	}
	SortCounted(cs)
	if !item.Equal(cs[0].Items, []item.Item{1, 9}) {
		t.Errorf("SortCounted order wrong: %v", cs)
	}
}

// Property: the open-addressed flat probe agrees with a reference map over
// random set lists with repeats (first occurrence keeps the id), for hits
// and misses.
func TestTableFlatProbeMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randomSet := func() []item.Item {
			k := 1 + rng.Intn(4)
			s := make([]item.Item, 0, k)
			for len(s) < k {
				s = item.Dedup(append(s, item.Item(rng.Intn(40))))
			}
			return s
		}
		var sets [][]item.Item
		ref := map[string]int32{}
		for i := 0; i < 100; i++ {
			s := randomSet()
			if _, ok := ref[Key(s)]; !ok {
				ref[Key(s)] = int32(len(sets))
			}
			sets = append(sets, s)
		}
		ix := BuildIndex(sets)
		for i := 0; i < 200; i++ {
			s := randomSet()
			want, ok := ref[Key(s)]
			if !ok {
				want = -1
			}
			if ix.Lookup(s) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The zero-allocation contract of the candidate counting hot path: Index
// lookups, scratch-buffer subset enumeration and the
// containment kernel (once its stamps have grown) must not touch the heap.
func TestProbePathZeroAlloc(t *testing.T) {
	var sets [][]item.Item
	for i := 0; i < 64; i++ {
		sets = append(sets, []item.Item{item.Item(i), item.Item(i + 100), item.Item(i + 1000)})
	}
	ix := BuildIndex(sets)
	hit := []item.Item{5, 105, 1005}
	miss := []item.Item{5, 105, 9999}
	txn := []item.Item{1, 2, 3, 4, 5, 6, 7, 8}
	scratch := make([]item.Item, 3)
	contained := []item.Item{3, 5, 9, 103, 105, 777, 1003, 1005, 1009, 5000}
	counts := make([]int64, ix.Len())
	var stamps Stamps
	if got := ix.CountContained(contained, 0, int32(ix.Len()), counts, &stamps); got != 2 {
		t.Fatalf("CountContained found %d sets, want 2", got)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Index.Lookup hit", func() { ix.Lookup(hit) }},
		{"Index.Lookup miss", func() { ix.Lookup(miss) }},
		{"ForEachSubsetScratch", func() {
			ForEachSubsetScratch(txn, 3, scratch, func(s []item.Item) bool { return true })
		}},
		{"Index.CountContained", func() {
			ix.CountContained(contained, 0, int32(ix.Len()), counts, &stamps)
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

// ForEachSubsetScratch must enumerate exactly what ForEachSubset does, in
// the same lexicographic order, for every (n, k).
func TestForEachSubsetScratchMatches(t *testing.T) {
	for n := 0; n <= 7; n++ {
		txn := make([]item.Item, n)
		for i := range txn {
			txn[i] = item.Item(10 * (i + 1))
		}
		for k := 0; k <= n+1; k++ {
			var a, b [][]item.Item
			ForEachSubset(txn, k, func(s []item.Item) bool {
				a = append(a, item.Clone(s))
				return true
			})
			scratch := make([]item.Item, 0, k)
			ForEachSubsetScratch(txn, k, scratch, func(s []item.Item) bool {
				b = append(b, item.Clone(s))
				return true
			})
			if len(a) != len(b) {
				t.Fatalf("n=%d k=%d: %d vs %d subsets", n, k, len(a), len(b))
			}
			for i := range a {
				if !item.Equal(a[i], b[i]) {
					t.Fatalf("n=%d k=%d subset %d: %v vs %v", n, k, i, a[i], b[i])
				}
			}
		}
	}
}
