package itemset

import (
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
// the ids an Index must report, kept apart from any structure the Index
// builds.
func firstIDs(sets [][]item.Item) map[string]int32 {
	ref := make(map[string]int32, len(sets))
	for id, s := range sets {
		if _, ok := ref[Key(s)]; !ok {
			ref[Key(s)] = int32(id)
		}
	}
	return ref
}

// Property: over ancestor-extended transactions of a random hierarchy,
// CountContained yields exactly the count vector (and hit total) of
// enumerating every k-subset and looking it up in a map of the sets' keys —
// for the whole index and, as NPGM counts its memory fragments, for every
// fragment of every [lo, hi) split: the fragment's own index
// BuildIndex(sets[lo:hi]) counts into got[lo:hi] and must match the [lo, hi)
// window of the map's ids, whether the sets were sorted or shuffled and
// whether a C_2 came out dense (pair table) or sparse (prefix layout).
func TestCountContainedMatchesEnumerateAndProbe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numItems := 12 + rng.Intn(50)
		parent := make([]item.Item, numItems)
		for i := range parent {
			parent[i] = item.None
			if i > 0 && rng.Intn(4) > 0 {
				parent[i] = item.Item(rng.Intn(i))
			}
		}
		tax := taxonomy.MustNew(parent)
		k := 1 + rng.Intn(5)
		sets := randomSets(rng, numItems, k)
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		}
		ix := BuildIndex(sets)
		n := int32(ix.Len())
		ref := firstIDs(sets)

		var txns [][]item.Item
		for i := 0; i < 40; i++ {
			var basket []item.Item
			for j := rng.Intn(7); j > 0; j-- {
				basket = append(basket, item.Item(rng.Intn(numItems)))
			}
			// Extension pulls in ancestors outside any candidate; short
			// baskets stay shorter than k.
			txns = append(txns, tax.ExtendTransaction(nil, basket))
		}

		var stamps Stamps
		scratch := make([]item.Item, k)
		for frags := int32(1); frags <= 4; frags++ {
			per := (n + frags - 1) / frags
			for f := int32(0); f < frags; f++ {
				lo, hi := min(f*per, n), min(f*per+per, n)
				frag := ix
				if frags > 1 {
					frag = BuildIndex(sets[lo:hi])
				}
				want := make([]int64, n)
				got := make([]int64, n)
				var wantHits, gotHits int64
				for _, txn := range txns {
					ForEachSubsetScratch(txn, k, scratch, func(sub []item.Item) bool {
						if id, ok := ref[Key(sub)]; ok && id >= lo && id < hi {
							want[id]++
							wantHits++
						}
						return true
					})
					gotHits += frag.CountContained(txn, got[lo:hi], &stamps)
				}
				if gotHits != wantHits {
					t.Logf("seed %d k=%d [%d,%d): %d hits, want %d", seed, k, lo, hi, gotHits, wantHits)
					return false
				}
				for id := range want {
					if got[id] != want[id] {
						t.Logf("seed %d k=%d [%d,%d): counts[%d] = %d, want %d (%v)",
							seed, k, lo, hi, id, got[id], want[id], sets[id])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A duplicated itemset counts once, under the first occurrence's id — the
// same winner Lookup reports.
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
// the prefix layout, the path that stamps.
func TestStampsRestart(t *testing.T) {
	ix := BuildIndex([][]item.Item{{1, 2}, {1, 7}, {2, 7}, {3, 9}})
	if ix.pairs.pair != nil {
		t.Fatal("sparse C_2 built a pair table")
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
