package itemset_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// randomLevel builds a random duplicate-free, sorted "L_{k-1}": sets of
// equal length k1 drawn from a small universe so join prefixes collide
// often.
func randomLevel(rng *rand.Rand, k1, n, universe int) [][]item.Item {
	seen := make(map[string]bool)
	var out [][]item.Item
	for len(out) < n {
		s := make([]item.Item, 0, k1)
		for len(s) < k1 {
			x := item.Item(rng.Intn(universe))
			if !slices.Contains(s, x) {
				s = append(s, x)
			}
		}
		item.Sort(s)
		key := itemset.Key(s)
		if seen[key] {
			n-- // universe too small to keep trying forever
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	itemset.SortSets(out)
	return out
}

// sameSets reports whether two lists hold the same sets in the same order.
func sameSets(a, b itemset.Sets) bool {
	return a.Len() == b.Len() && (a.Len() == 0 || a.K == b.K && slices.Equal(a.Items, b.Items))
}

// counted wraps a level's sets as the barrier records them.
func counted(sets [][]item.Item) []itemset.Counted {
	out := make([]itemset.Counted, len(sets))
	for i, s := range sets {
		out[i] = itemset.Counted{Items: s, Count: 1}
	}
	return out
}

// TestGenParallelMatchesGen is the bit-identity property of the arena
// generators against the map-keyed reference Gen. For a random sorted
// L_{k-1}, GenFlat writes exactly Gen's candidates, order included, and
// leaves its input as it was. Over a random balanced taxonomy,
// cumulate.GenerateCandidates at k = 2..4 — reading the level as the barrier
// records it — equals Gen over the same level, less the pairs of an item and
// its ancestor at k = 2.
func TestGenParallelMatchesGen(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1 := 1 + rng.Intn(4) // 1..4: includes the empty-prefix case
		prev := randomLevel(rng, k1, 10+rng.Intn(120), 4+rng.Intn(20))
		in := itemset.FromSlices(prev)
		before := slices.Clone(in.Items)
		if got, want := itemset.GenFlat(in), itemset.FromSlices(itemset.Gen(prev)); !sameSets(got, want) {
			t.Logf("seed=%d k1=%d: GenFlat gave %d candidates, want %d", seed, k1, got.Len(), want.Len())
			return false
		}
		if !slices.Equal(in.Items, before) {
			t.Logf("seed=%d k1=%d: input changed", seed, k1)
			return false
		}

		tax := taxonomy.MustBalanced(20+rng.Intn(60), 1+rng.Intn(4), 2+rng.Intn(3))
		for k := 2; k <= 4; k++ {
			level := randomLevel(rng, k-1, 5+rng.Intn(80), tax.NumItems())
			want := itemset.Gen(level)
			if k == 2 {
				want = slices.DeleteFunc(want, func(c []item.Item) bool {
					return tax.IsAncestor(c[0], c[1]) || tax.IsAncestor(c[1], c[0])
				})
			}
			if got := cumulate.GenerateCandidates(tax, counted(level), k); !sameSets(got, itemset.FromSlices(want)) {
				t.Logf("seed=%d k=%d: GenerateCandidates gave %d candidates, want %d", seed, k, got.Len(), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGenParallelArenaShape pins the layout contract: GenFlat's candidates
// lie end to end in one arena of exactly K items per set, and each window At
// hands out is clipped to its K items, so an append to one never writes into
// the next.
func TestGenParallelArenaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cands := itemset.GenFlat(itemset.FromSlices(randomLevel(rng, 2, 200, 12)))
	if cands.K != 3 || cands.Len() == 0 || len(cands.Items) != 3*cands.Len() {
		t.Fatalf("K=%d, %d sets over %d items: want 3-sets end to end", cands.K, cands.Len(), len(cands.Items))
	}
	for i := range cands.Len() {
		if c := cands.At(i); len(c) != 3 || cap(c) != 3 {
			t.Fatalf("candidate %d %v: len %d cap %d, want 3/3", i, c, len(c), cap(c))
		}
	}
}
