package itemset

import (
	"fmt"

	"pgarm/internal/item"
)

// Sets is a candidate list: Len() canonical itemsets of K items each, laid
// end to end in one arena in strictly ascending lexicographic order, so set
// i is Items[i*K:(i+1)*K]. It is the one form C_k takes from generation to
// the pass barrier — the generators write it, the owned and duplicated
// shares are exact-size copies of parts of it (Subset), and Index, Table
// and the candidate closures build from it. A k = 2 candidate costs its
// 8 bytes of items and no slice header.
//
// The contract — one length, canonical sets, strictly ascending with no
// repeats — holds by construction for every list the generators emit.
// NewSets and the builders (NewIndex, NewTable) check it in one linear pass
// and panic naming the violation.
type Sets struct {
	K     int
	Items []item.Item
}

// NewSets returns the list of k-itemsets laid end to end in items, after
// checking the contract. items is kept, not copied.
func NewSets(k int, items []item.Item) Sets {
	s := Sets{K: k, Items: items}
	s.check()
	return s
}

// Len returns the number of sets.
func (s Sets) Len() int {
	if s.K == 0 {
		return 0
	}
	return len(s.Items) / s.K
}

// At returns set i, a window of the arena clipped to its K items, so an
// append to it never writes into set i+1.
func (s Sets) At(i int) []item.Item {
	lo := i * s.K
	return s.Items[lo : lo+s.K : lo+s.K]
}

// Slice returns the sets [lo, hi) as a list sharing the arena.
func (s Sets) Slice(lo, hi int) Sets { return Sets{K: s.K, Items: s.Items[lo*s.K : hi*s.K]} }

// Subset copies the sets ids, ascending, into an exactly sized arena of
// their own.
func (s Sets) Subset(ids []int32) Sets {
	items := make([]item.Item, 0, len(ids)*s.K)
	for _, id := range ids {
		items = append(items, s.At(int(id))...)
	}
	return Sets{K: s.K, Items: items}
}

// LevelSets copies a recorded level — one length, canonical order, as every
// barrier records it — into one arena.
func LevelSets(level []Counted) Sets {
	return pack(level, func(c Counted) []item.Item { return c.Items })
}

// FromSlices copies sets into one arena, checking the contract. Outside
// tests only the slice-based adapters (BuildIndex, cumulate.KeepSet,
// cumulate.GenerateCandidatesN) use it; they remain for the benchmark
// harness until its port to Sets (ROADMAP item 1).
func FromSlices(sets [][]item.Item) Sets {
	return pack(sets, func(s []item.Item) []item.Item { return s })
}

// Slices returns one window per set, for the benchmark harness's
// slice-based adapters only.
func (s Sets) Slices() [][]item.Item {
	out := make([][]item.Item, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// pack lays the itemsets of xs end to end and checks the result.
func pack[T any](xs []T, items func(T) []item.Item) Sets {
	if len(xs) == 0 {
		return Sets{}
	}
	k := len(items(xs[0]))
	arena := make([]item.Item, 0, k*len(xs))
	for i, x := range xs {
		s := items(x)
		if len(s) != k {
			panic(fmt.Sprintf("itemset: set %d %v has the wrong length: %d items, want %d", i, s, len(s), k))
		}
		arena = append(arena, s...)
	}
	return NewSets(k, arena)
}

// check panics unless s meets the contract: every set K items long,
// canonical, and each set strictly after the one before it. It reads the
// arena once and returns the largest item (0 for an empty list), which both
// Index structures size their tables by.
func (s Sets) check() (maxItem item.Item) {
	k, items := s.K, s.Items
	if k < 0 || k == 0 && len(items) > 0 || k > 0 && len(items)%k != 0 {
		panic(fmt.Sprintf("itemset: a set has the wrong length: %d items do not split into sets of %d", len(items), k))
	}
	if k == 2 { // C_2, the longest list a mine builds, in a loop of its own
		for i := 0; i < len(items); i += 2 {
			a, b := items[i], items[i+1]
			if a >= b || i > 0 && (a < items[i-2] || a == items[i-2] && b <= items[i-1]) {
				s.violation(i / 2)
			}
			maxItem = max(maxItem, b)
		}
		return maxItem
	}
	for i := range s.Len() {
		c := s.At(i)
		if !item.IsSorted(c) || i > 0 && item.Compare(s.At(i-1), c) >= 0 {
			s.violation(i)
		}
		maxItem = max(maxItem, c[k-1])
	}
	return maxItem
}

// violation panics with a message naming how set i breaks the contract.
func (s Sets) violation(i int) {
	c := s.At(i)
	if !item.IsSorted(c) {
		panic(fmt.Sprintf("itemset: set %d %v is not canonical", i, c))
	}
	prev := s.At(i - 1)
	if item.Equal(prev, c) {
		panic(fmt.Sprintf("itemset: repeated set %d %v", i, c))
	}
	panic(fmt.Sprintf("itemset: sets not ascending: set %d %v follows %v", i, c, prev))
}
