package itemset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

func TestKeyOrderMatchesItemsetOrder(t *testing.T) {
	a := Key([]item.Item{1, 2})
	b := Key([]item.Item{1, 3})
	c := Key([]item.Item{2, 0})
	if !(a < b && b < c) {
		t.Errorf("key ordering broken: %q %q %q", a, b, c)
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
	// Owners are Hash modulo the cluster size on every node and process, so
	// its values are pinned: FNV-1a over each item's four bytes, low first.
	for _, c := range []struct {
		s    []item.Item
		want uint64
	}{{s, 0x5ab4bcce7fe5c000}, {[]item.Item{70000, 1 << 20}, 0xe46f4b31ee817393}} {
		if got := Hash(c.s); got != c.want {
			t.Errorf("Hash(%v) = %#x, want %#x", c.s, got, c.want)
		}
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
			for _, s := range subsetsOf(c, 2) {
				if !seen[Key(s)] {
					return false
				}
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

// TestCountedMatchesWireCodec: AppendCounted writes the bytes
// wire.AppendCounted writes for the same pairs, and ParseCounted reads such
// a block back pair for pair, up to its last byte.
func TestCountedMatchesWireCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		cs := make([]Counted, rng.Intn(20))
		sets := make([][]item.Item, len(cs))
		counts := make([]int64, len(cs))
		for i := range cs {
			var s []item.Item
			for j := rng.Intn(6); j >= 0; j-- {
				s = append(s, item.Item(rng.Intn(1<<20)))
			}
			s = item.Dedup(s)
			sets[i], counts[i] = s, rng.Int63n(1<<(1+rng.Intn(62)))
			cs[i] = Counted{Items: s, Count: counts[i]}
		}
		want := wire.AppendCounted([]byte{0xee}, sets, counts)
		if got := AppendCounted([]byte{0xee}, cs); string(got) != string(want) {
			t.Fatalf("trial %d: AppendCounted %x, wire.AppendCounted %x", trial, got, want)
		}
		d := wire.NewDec(append(want[1:], 0xff))
		got := ParseCounted(&d)
		if d.Err() != nil || d.Len() != 1 || len(got) != len(cs) {
			t.Fatalf("trial %d: parsed %d of %d pairs, %d bytes left, err %v", trial, len(got), len(cs), d.Len(), d.Err())
		}
		for i := range cs {
			if got[i].Count != cs[i].Count || !item.Equal(got[i].Items, cs[i].Items) {
				t.Fatalf("trial %d pair %d: got %v, want %v", trial, i, got[i], cs[i])
			}
		}
		if len(want) > 2 {
			d := wire.NewDec(want[1 : len(want)-1])
			if ParseCounted(&d); d.Err() == nil {
				t.Fatalf("trial %d: a block cut one byte short parsed cleanly", trial)
			}
		}
	}
}

// FuzzParseCounted: on any bytes, ParseCounted reads what the wire
// package's parallel-slice decoder (Dec.Counted) reads, fails exactly when
// it fails, and leaves the same bytes.
func FuzzParseCounted(f *testing.F) {
	f.Add(AppendCounted(nil, []Counted{{Items: []item.Item{1, 128, 300}, Count: 7}, {Items: []item.Item{5}, Count: 1 << 40}}))
	f.Add([]byte{1, 2, 7, 0, 3})                   // a zero delta
	f.Add([]byte{1, 1, 4, 0xff, 0xff})             // a truncated count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 1}) // a length past the bytes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, ref := wire.NewDec(b), wire.NewDec(b)
		got := ParseCounted(&d)
		sets, counts := ref.Counted()
		if (d.Err() == nil) != (ref.Err() == nil) || d.Len() != ref.Len() {
			t.Fatalf("ParseCounted err %v, %d bytes left; Dec.Counted err %v, %d left", d.Err(), d.Len(), ref.Err(), ref.Len())
		}
		if d.Err() != nil {
			return
		}
		if len(got) != len(sets) {
			t.Fatalf("%d pairs, Dec.Counted %d", len(got), len(sets))
		}
		for i := range got {
			if got[i].Count != counts[i] || !item.Equal(got[i].Items, sets[i]) {
				t.Fatalf("pair %d: %v, Dec.Counted %v/%d", i, got[i], sets[i], counts[i])
			}
		}
	})
}

// The zero-allocation contract of the candidate counting hot path: Table
// lookups, HPGM's subset walk and unit encoding (once walker and batch have
// grown), its receiver (once its unit scratch has grown) and the containment
// kernel in both child forms of the prefix layout (once their stamps have
// grown) must not touch the heap.
func TestProbePathZeroAlloc(t *testing.T) {
	var sets [][]item.Item
	for i := 0; i < 64; i++ {
		sets = append(sets, []item.Item{item.Item(i), item.Item(i + 100), item.Item(i + 1000)})
	}
	ix := buildIndex(sets, formList)
	bitsIx := buildIndex(sets, formBits)
	tab := BuildTable(sets)
	hit := []item.Item{5, 105, 1005}
	miss := []item.Item{5, 105, 9999}
	txn := []item.Item{1, 2, 3, 4, 5, 6, 7, 8}
	var walk Subsets
	contained := []item.Item{3, 5, 9, 103, 105, 777, 1003, 1005, 1009, 5000}
	counts := make([]int64, ix.Len())
	var stamps Stamps
	for _, ix := range []*Index{ix, bitsIx} {
		if got := ix.CountContained(contained, counts, &stamps); got != 2 {
			t.Fatalf("CountContained (bitset form %v) found %d sets, want 2", ix.pre.bits != nil, got)
		}
	}
	batch := make([]byte, 0, 1024)
	units := wire.AppendItems(wire.AppendItems(nil, hit), miss)
	var unit []item.Item
	if _, _, hits, err := tab.CountUnits(units, counts, &unit); hits != 1 || err != nil {
		t.Fatalf("CountUnits found %d sets (%v), want 1", hits, err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Table.Lookup hit", func() { tab.Lookup(hit) }},
		{"Table.Lookup miss", func() { tab.Lookup(miss) }},
		{"Subsets", func() {
			batch = batch[:0]
			for ok := walk.Reset(txn, 3); ok; ok = walk.Next() {
				batch = wire.AppendItems(batch, walk.Items())
			}
		}},
		{"Index.CountContained list form", func() {
			ix.CountContained(contained, counts, &stamps)
		}},
		{"Index.CountContained bitset form", func() {
			bitsIx.CountContained(contained, counts, &stamps)
		}},
		{"Table.CountUnits", func() {
			tab.CountUnits(units, counts, &unit)
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}
