package itemset

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
)

// randomSets draws a candidate list of one of the shapes the counting sites
// see: empty, a single set, the all-pairs-dense C_2 over a member subset, or
// a sparse random C_k. Sets are canonical, duplicate-free and sorted.
func randomSets(rng *rand.Rand, numItems, k int) [][]item.Item {
	members := rng.Perm(numItems)[:k+rng.Intn(numItems-k)]
	var sets [][]item.Item
	switch shape := rng.Intn(5); {
	case shape == 0:
		return nil
	case shape == 1 && k == 2:
		for _, a := range members {
			for _, b := range members {
				if a < b {
					sets = append(sets, []item.Item{item.Item(a), item.Item(b)})
				}
			}
		}
	default:
		want := 1
		if shape > 1 {
			want = 1 + rng.Intn(60)
		}
		seen := map[string]bool{}
		for tries := 0; len(sets) < want && tries < 10*want; tries++ {
			var s []item.Item
			for len(s) < k {
				s = item.Dedup(append(s, item.Item(members[rng.Intn(len(members))])))
			}
			if !seen[Key(s)] {
				seen[Key(s)] = true
				sets = append(sets, s)
			}
		}
	}
	SortSets(sets)
	return sets
}

// firstIDs maps every set's Key to the position of its first occurrence:
// the ids a Table must report and an Index must count under, kept apart
// from any structure either builds.
func firstIDs(sets [][]item.Item) map[string]int32 {
	ref := make(map[string]int32, len(sets))
	for id, s := range sets {
		if _, ok := ref[Key(s)]; !ok {
			ref[Key(s)] = int32(id)
		}
	}
	return ref
}

// rankedSets draws a sparse C_k over r+1 of numItems items whose child
// items (the items after each set's first) are exactly r distinct items, so
// a bitset-form layout over it has a rank space of r: the r-k+2 windows of k
// consecutive members cover every member but the smallest as a child item,
// and random k-subsets of the members add sets without adding a child item.
func rankedSets(rng *rand.Rand, numItems, k, r int) [][]item.Item {
	members := rng.Perm(numItems)[:r+1]
	slices.Sort(members)
	var sets [][]item.Item
	seen := map[string]bool{}
	add := func(s []item.Item) {
		if !seen[Key(s)] {
			seen[Key(s)] = true
			sets = append(sets, s)
		}
	}
	for i := 0; i+k <= len(members); i++ {
		var s []item.Item
		for _, m := range members[i : i+k] {
			s = append(s, item.Item(m))
		}
		add(s)
	}
	for extra := rng.Intn(2 * r); extra > 0; extra-- {
		var s []item.Item
		for len(s) < k {
			s = item.Dedup(append(s, item.Item(members[rng.Intn(len(members))])))
		}
		add(s)
	}
	SortSets(sets)
	return sets
}

// rankSpace returns the number of ranks of a bitset-form index, 0 for any
// other.
func rankSpace(ix *Index) int {
	r := 0
	for _, x := range ix.pre.rank.has {
		r += bits.OnesCount64(x)
	}
	return r
}

// Property: over ancestor-extended transactions of a random hierarchy,
// CountContained yields exactly the count vector (and hit total) of
// enumerating every k-subset and looking it up in a map of the sets' keys —
// for the whole index and, as NPGM counts its memory fragments, for every
// fragment of every [lo, hi) split: the fragment's own index counts into
// got[lo:hi] and must match the [lo, hi) window of the map's ids, whether
// the sets were sorted or shuffled, whether a C_2 came out dense (pair
// table) or sparse (prefix layout), and with the prefix layout built in each
// child form. The bitset form must meet every rank space of rankSpaces.
func TestCountContainedMatchesEnumerateAndProbe(t *testing.T) {
	// Rank spaces at and across word edges, and one of four words.
	rankSpaces := []int{63, 64, 65, 128, 200}
	spaces := map[int]bool{} // rank spaces the bitset form was counted over
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numItems := 12 + rng.Intn(50)
		if rng.Intn(2) == 0 {
			numItems = 12 + rng.Intn(300)
		}
		k := 1 + rng.Intn(5)
		ranked := 0
		if k > 1 && rng.Intn(3) == 0 {
			ranked = rankSpaces[rng.Intn(len(rankSpaces))]
			numItems = max(numItems, ranked+1+rng.Intn(100))
		}
		parent := make([]item.Item, numItems)
		for i := range parent {
			parent[i] = item.None
			if i > 0 && rng.Intn(4) > 0 {
				parent[i] = item.Item(rng.Intn(i))
			}
		}
		tax := taxonomy.MustNew(parent)
		var sets [][]item.Item
		if ranked > 0 {
			sets = rankedSets(rng, numItems, k, ranked)
		} else {
			sets = randomSets(rng, numItems, k)
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		}
		n := int32(len(sets))
		ref := firstIDs(sets)

		var txns [][]item.Item
		for i := 0; i < 40; i++ {
			var basket []item.Item
			for j := rng.Intn(7); j > 0; j-- {
				basket = append(basket, item.Item(rng.Intn(numItems)))
			}
			if len(sets) > 0 && rng.Intn(2) == 0 { // hits even where sets are few
				basket = append(basket, sets[rng.Intn(len(sets))]...)
			}
			// Extension pulls in ancestors outside any candidate; short
			// baskets stay shorter than k.
			txns = append(txns, tax.ExtendTransaction(nil, basket))
		}
		hits := make([][]int32, len(txns)) // each transaction's ids, by enumeration
		for i, txn := range txns {
			ForEachSubset(txn, k, func(sub []item.Item) bool {
				if id, ok := ref[Key(sub)]; ok {
					hits[i] = append(hits[i], id)
				}
				return true
			})
		}

		var stamps Stamps
		for _, form := range []layoutForm{formList, formBits} {
			for frags := int32(1); frags <= 4; frags++ {
				per := (n + frags - 1) / frags
				for f := int32(0); f < frags; f++ {
					lo, hi := min(f*per, n), min(f*per+per, n)
					frag := buildIndex(sets[lo:hi], form)
					if frags == 1 {
						spaces[rankSpace(frag)] = true
						if r := rankSpace(frag); ranked > 0 && frag.pairs.pair == nil && form == formBits && r != ranked {
							t.Logf("seed %d k=%d: rank space %d, want %d", seed, k, r, ranked)
							return false
						}
					}
					want := make([]int64, n)
					got := make([]int64, n)
					var wantHits, gotHits int64
					for i, txn := range txns {
						for _, id := range hits[i] {
							if id >= lo && id < hi {
								want[id]++
								wantHits++
							}
						}
						gotHits += frag.CountContained(txn, got[lo:hi], &stamps)
					}
					if gotHits != wantHits {
						t.Logf("seed %d k=%d form %d [%d,%d): %d hits, want %d", seed, k, form, lo, hi, gotHits, wantHits)
						return false
					}
					for id := range want {
						if got[id] != want[id] {
							t.Logf("seed %d k=%d form %d [%d,%d): counts[%d] = %d, want %d (%v)",
								seed, k, form, lo, hi, id, got[id], want[id], sets[id])
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, r := range rankSpaces {
		if !spaces[r] {
			t.Errorf("no bitset layout over %d ranks was counted", r)
		}
	}
}

// A duplicated itemset counts once, under the first occurrence's id — the
// same winner Table.Lookup reports.
func TestCountContainedDuplicateKeepsFirstID(t *testing.T) {
	sets := [][]item.Item{{4, 9}, {1, 2}, {4, 9}, {1, 3}}
	ix := BuildIndex(sets)
	counts := make([]int64, len(sets))
	var stamps Stamps
	if hits := ix.CountContained([]item.Item{1, 3, 4, 9}, counts, &stamps); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if want := []int64{1, 0, 0, 1}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

func TestChoose(t *testing.T) {
	for n := 0; n <= 12; n++ {
		txn := make([]item.Item, n)
		for i := range txn {
			txn[i] = item.Item(i)
		}
		for k := 1; k <= n+1; k++ {
			var want int64
			ForEachSubset(txn, k, func([]item.Item) bool { want++; return true })
			if got := Choose(n, k); got != want {
				t.Errorf("Choose(%d, %d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

// When the stamp base nears the top of its range the stamps are cleared and
// restarted; stale entries must not resurface as members of a later
// transaction. {3, 9} keeps the C_2 below half full, so it counts through
// the prefix layout, here in the list form, the path that stamps.
func TestStampsRestart(t *testing.T) {
	ix := buildIndex([][]item.Item{{1, 2}, {1, 7}, {2, 7}, {3, 9}}, formList)
	if ix.pairs.pair != nil || ix.pre.bits != nil {
		t.Fatal("sparse C_2 did not build the list form")
	}
	counts := make([]int64, 4)
	var stamps Stamps
	ix.CountContained([]item.Item{1, 7}, counts, &stamps)
	stamps.next = 1<<31 + 1
	ix.CountContained([]item.Item{1, 2}, counts, &stamps)
	ix.CountContained([]item.Item{2, 7}, counts, &stamps)
	if want := []int64{1, 1, 1, 0}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

// One bitset-form layout is shared read-only by every scan worker: four
// workers counting the same transactions at once, each with its own Stamps
// and counts, must each get the sequential count vector. Run under -race.
func TestBitsetConcurrentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := rankedSets(rng, 200, 3, 150)
	ix := buildIndex(sets, formBits)
	if ix.pre.bits == nil || ix.pre.w != 3 {
		t.Fatalf("bitset form not built over 3 words (w = %d)", ix.pre.w)
	}
	var txns [][]item.Item
	for i := 0; i < 200; i++ {
		basket := slices.Clone(sets[rng.Intn(len(sets))])
		for j := rng.Intn(12); j > 0; j-- {
			basket = append(basket, item.Item(rng.Intn(200)))
		}
		txns = append(txns, item.Dedup(basket))
	}
	want := make([]int64, ix.Len())
	var stamps Stamps
	var hits int64
	for _, txn := range txns {
		hits += ix.CountContained(txn, want, &stamps)
	}
	if hits < int64(len(txns)) {
		t.Fatalf("%d hits over %d transactions that each hold a set", hits, len(txns))
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
			t.Errorf("worker %d: counts differ from the sequential count", w)
		}
	}
}

// The child form follows the byte rule: a node's children become a bitset
// once the interior nodes' words and the rank table hold no more bytes than
// the child items they replace. Index.Bytes counts the form that was built,
// or the pair table, and nothing else. Every figure is worked out by hand in
// the comments.
func TestLayoutFormAndBytes(t *testing.T) {
	star := func(c int) [][]item.Item { // {0, 1}, …, {0, c}: one interior node
		var sets [][]item.Item
		for x := 1; x <= c; x++ {
			sets = append(sets, []item.Item{0, item.Item(x)})
		}
		return sets
	}
	triples := [][]item.Item{{1, 2, 3}, {1, 2, 5}, {1, 4, 5}, {2, 3, 5}}
	for _, c := range []struct {
		name  string
		ix    *Index
		bits  bool
		bytes int64
	}{
		// dir 4 + start 8 + items 4·4; bitsets would take 8 + 12 = 20 > 16.
		{"star of 4", BuildIndex(star(4)), false, 4 + 8 + 16},
		// dir 4 + start 8 + 8 (one word) + 12 (rank table) = 20 ≤ 5·4.
		{"star of 5", BuildIndex(star(5)), true, 4 + 8 + 20},
		// dir 12 + start 12 + 16 + items (3 + 4)·4.
		{"triples", BuildIndex(triples), false, 12 + 12 + 16 + 28},
		// dir 12 + start 12 + 16 + 5 interior nodes · 8 + rank table 12.
		{"triples, bitset form", buildIndex(triples, formBits), true, 12 + 12 + 16 + 52},
		// slot 4·4 + pair 3·4.
		{"dense C_2", BuildIndex(allPairs(0, 2, 3)), false, 16 + 12},
		// Nothing to count.
		{"empty", BuildIndex(nil), false, 0},
	} {
		if got := c.ix.pre.bits != nil; got != c.bits {
			t.Errorf("%s: bitset form %v, want %v", c.name, got, c.bits)
		}
		if got := c.ix.Bytes(); got != c.bytes {
			t.Errorf("%s: Bytes() = %d, want %d", c.name, got, c.bytes)
		}
	}
}
