package itemset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// randomLevel builds a random duplicate-free "L_{k-1}": sets of equal length
// k1 drawn from a small universe so join prefixes collide often.
func randomLevel(rng *rand.Rand, k1, n, universe int) [][]item.Item {
	seen := make(map[string]bool)
	var out [][]item.Item
	for len(out) < n {
		s := make([]item.Item, 0, k1)
		for len(s) < k1 {
			x := item.Item(rng.Intn(universe))
			if !item.Contains(s, x) {
				s = append(s, x)
			}
		}
		item.Sort(s)
		key := Key(s)
		if seen[key] {
			n-- // universe too small to keep trying forever
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// TestGenParallelMatchesGen is the bit-identity property the parallel pass
// boundary must keep: for random L_{k-1} and every worker count, GenParallel
// produces exactly Gen's output, order included.
func TestGenParallelMatchesGen(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1 := 1 + rng.Intn(4) // 1..4: includes the unsplittable empty-prefix case
		prev := randomLevel(rng, k1, 10+rng.Intn(120), 4+rng.Intn(20))
		want := Gen(prev)
		for _, w := range []int{1, 2, 4, 8} {
			got := GenParallel(prev, w, nil)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed=%d k1=%d workers=%d: got %d candidates, want %d",
					seed, k1, w, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortSetsParallelMatches(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1 := 1 + rng.Intn(3)
		sets := randomLevel(rng, k1, 3000+rng.Intn(2000), 200)
		want := make([][]item.Item, len(sets))
		copy(want, sets)
		SortSets(want)
		for _, w := range []int{2, 3, 4, 8} {
			got := make([][]item.Item, len(sets))
			copy(got, sets)
			SortSetsParallel(got, w)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexParallelMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := randomLevel(rng, 3, 4000, 40)
	// Inject duplicates: parallel fill must keep the first occurrence's id.
	sets = append(sets, sets[17], sets[42])
	seq := BuildIndex(sets)
	for _, w := range []int{1, 2, 4, 8} {
		par := BuildIndexParallel(sets, w)
		for _, s := range sets {
			if got, want := par.Lookup(s), seq.Lookup(s); got != want {
				t.Fatalf("workers=%d Lookup(%v) = %d, want %d", w, s, got, want)
			}
		}
		if par.Lookup([]item.Item{1000, 1001, 1002}) != -1 {
			t.Fatalf("workers=%d: absent set found", w)
		}
	}
}

// TestProbeSetCollisions is the hash-collision regression test for the
// open-addressed prune set: sets landing in the same slot chain must stay
// distinguishable, and absent sets sharing the chain must miss.
func TestProbeSetCollisions(t *testing.T) {
	// Collect 2-itemsets {0, x} that collide in the initial 16-slot table.
	byBucket := make(map[uint64][][]item.Item)
	for x := item.Item(1); x < 400; x++ {
		s := []item.Item{0, x}
		b := flatHash(s) & 15
		byBucket[b] = append(byBucket[b], s)
	}
	var sets [][]item.Item
	var bucket uint64
	for b, group := range byBucket {
		if len(group) >= 6 {
			sets, bucket = group[:4], b
			break
		}
	}
	if sets == nil {
		t.Fatal("no colliding bucket found (hash function changed?)")
	}
	for _, w := range []int{1, 4} {
		var f flatProbe
		f.fillParallel(sets, w)
		for i, s := range sets {
			if got := f.findItems(s, sets); got != int32(i) {
				t.Fatalf("workers=%d: colliding set %v resolved to id %d, want %d", w, s, got, i)
			}
		}
		// Absent sets from the same slot chain must not false-positive.
		absent := byBucket[bucket][4:]
		for _, s := range absent {
			if f.findItems(s, sets) != -1 {
				t.Fatalf("workers=%d: absent colliding set %v reported present", w, s)
			}
		}
	}
}

// TestGenParallelArenaShape pins the allocation contract: every candidate is
// a full slice (len == cap) of a shard arena, not a private allocation.
func TestGenParallelArenaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prev := randomLevel(rng, 2, 200, 12)
	for _, c := range GenParallel(prev, 4, nil) {
		if cap(c) != len(c) {
			t.Fatalf("candidate %v: cap %d != len %d (not arena-sliced)", c, cap(c), len(c))
		}
	}
}
