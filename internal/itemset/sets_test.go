package itemset

import (
	"fmt"
	"strings"
	"testing"

	"pgarm/internal/item"
)

// panicOf runs fn and returns what it panicked with, as text; "" if it
// returned.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestSetsContract: a candidate list is one length, canonical, strictly
// ascending and free of repeats, and the checking constructors and every
// builder refuse a list that is not, panicking with a message that names the
// violation — none sorts, collapses or silently drops what it was given.
func TestSetsContract(t *testing.T) {
	for _, c := range []struct {
		name   string
		k      int
		arena  []item.Item   // the list as one arena
		slices [][]item.Item // the same list as slices
		want   string
	}{
		{"non-ascending list", 2, []item.Item{1, 3, 1, 2}, [][]item.Item{{1, 3}, {1, 2}}, "not ascending"},
		{"repeated set", 2, []item.Item{1, 2, 4, 5, 4, 5}, [][]item.Item{{1, 2}, {4, 5}, {4, 5}}, "repeated set"},
		{"set of the wrong length", 2, []item.Item{1, 2, 3}, [][]item.Item{{1, 2}, {3}}, "wrong length"},
		{"set not canonical", 2, []item.Item{1, 2, 5, 4}, [][]item.Item{{1, 2}, {5, 4}}, "not canonical"},
		// The same violations among 3-sets, which a loop of their own checks.
		{"non-ascending 3-sets", 3, []item.Item{1, 2, 4, 1, 2, 3}, [][]item.Item{{1, 2, 4}, {1, 2, 3}}, "not ascending"},
		{"repeated 3-set", 3, []item.Item{1, 2, 3, 1, 2, 3}, [][]item.Item{{1, 2, 3}, {1, 2, 3}}, "repeated set"},
		{"3-set of the wrong length", 3, []item.Item{1, 2, 3, 4, 5}, [][]item.Item{{1, 2, 3}, {4, 5}}, "wrong length"},
		{"3-set not canonical", 3, []item.Item{1, 2, 3, 4, 6, 5}, [][]item.Item{{1, 2, 3}, {4, 6, 5}}, "not canonical"},
	} {
		raw := Sets{K: c.k, Items: c.arena}
		for _, b := range []struct {
			name string
			fn   func()
		}{
			{"NewSets", func() { NewSets(c.k, c.arena) }},
			{"FromSlices", func() { FromSlices(c.slices) }},
			{"NewIndex", func() { NewIndex(raw) }},
			{"NewIndex list form", func() { buildIndex(raw, formList) }},
			{"NewIndex bitset form", func() { buildIndex(raw, formBits) }},
			{"NewTable", func() { NewTable(raw) }},
			{"BuildIndex", func() { BuildIndex(c.slices) }},
		} {
			if msg := panicOf(b.fn); !strings.Contains(msg, c.want) {
				t.Errorf("%s: %s panicked with %q, want a message naming %q", c.name, b.name, msg, c.want)
			}
		}
	}

	// A list that meets the contract builds, and its windows read back.
	s := NewSets(2, []item.Item{1, 2, 1, 3, 2, 3})
	if s.Len() != 3 || !item.Equal(s.At(1), []item.Item{1, 3}) || cap(s.At(1)) != 2 {
		t.Fatalf("NewSets: %d sets, At(1) = %v (cap %d)", s.Len(), s.At(1), cap(s.At(1)))
	}
	if sub := s.Subset([]int32{0, 2}); sub.Len() != 2 || cap(sub.Items) != 4 || !item.Equal(sub.At(1), []item.Item{2, 3}) {
		t.Errorf("Subset(0, 2) = %v over %d items of capacity", sub.Items, cap(sub.Items))
	}
	if ix := NewIndex(s); ix.Len() != 3 {
		t.Errorf("NewIndex: Len() = %d, want 3", ix.Len())
	}
	if tab := NewTable(s); tab.Lookup([]item.Item{2, 3}) != 2 {
		t.Errorf("NewTable: {2, 3} resolved to %d, want 2", tab.Lookup([]item.Item{2, 3}))
	}
}
