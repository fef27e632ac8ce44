// Package item defines the elementary item type shared by every layer of the
// miner: the taxonomy, itemset machinery, transaction store, generator and
// the parallel algorithms themselves.
//
// An Item is a dense non-negative integer identifier. Density matters: the
// taxonomy and the pass-1 counters index plain slices by Item, which is what
// makes support counting over millions of transactions cheap.
package item

import (
	"fmt"
	"slices"
	"sort"
)

// Item identifies a single literal in the item universe I = {i_1 ... i_m}.
// Identifiers are dense, starting at 0. None is the invalid sentinel.
type Item int32

// None is the sentinel for "no item", used for absent parents (roots) and
// failed lookups.
const None Item = -1

// String renders the item as "i<n>", or "⊥" for None.
func (it Item) String() string {
	if it == None {
		return "⊥"
	}
	return fmt.Sprintf("i%d", int32(it))
}

// Sort sorts a slice of items in ascending order in place.
func Sort(items []Item) {
	slices.Sort(items) // allocation-free, unlike sort.Slice
}

// IsSorted reports whether the slice is in strictly ascending order, i.e.
// sorted and free of duplicates. Itemsets are canonically in this form.
func IsSorted(items []Item) bool {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			return false
		}
	}
	return true
}

// Dedup sorts the slice and removes duplicates in place, returning the
// (possibly shorter) canonical slice.
func Dedup(items []Item) []Item {
	if len(items) < 2 {
		return items
	}
	Sort(items)
	w := 1
	for r := 1; r < len(items); r++ {
		if items[r] != items[w-1] {
			items[w] = items[r]
			w++
		}
	}
	return items[:w]
}

// Contains reports whether the sorted slice haystack contains needle.
func Contains(haystack []Item, needle Item) bool {
	i := sort.Search(len(haystack), func(i int) bool { return haystack[i] >= needle })
	return i < len(haystack) && haystack[i] == needle
}

// ContainsAll reports whether sorted slice sub is a subset of sorted slice
// super. Both slices must be in canonical (strictly ascending) form.
func ContainsAll(super, sub []Item) bool {
	i := 0
	for _, s := range sub {
		for i < len(super) && super[i] < s {
			i++
		}
		if i >= len(super) || super[i] != s {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two item slices hold the same sequence.
func Equal(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compare orders two canonical itemsets lexicographically, returning
// -1, 0 or +1. Shorter prefixes sort first.
func Compare(a, b []Item) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Clone returns a copy of the slice.
func Clone(items []Item) []Item {
	if items == nil {
		return nil
	}
	out := make([]Item, len(items))
	copy(out, items)
	return out
}

// Intersects reports whether two canonical (sorted, deduped) itemsets share
// at least one item.
func Intersects(a, b []Item) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// AppendMinus appends a \ b to dst, for canonical itemsets a and b, and
// returns the extended slice.
func AppendMinus(dst, a, b []Item) []Item {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		dst = append(dst, x)
	}
	return dst
}

// Format renders an itemset as "{i1,i5,i9}".
func Format(items []Item) string {
	s := "{"
	for i, it := range items {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", int32(it))
	}
	return s + "}"
}
