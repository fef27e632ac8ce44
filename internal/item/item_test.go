package item

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestStringForms(t *testing.T) {
	if got := Item(7).String(); got != "i7" {
		t.Errorf("Item(7).String() = %q", got)
	}
	if got := None.String(); got != "⊥" {
		t.Errorf("None.String() = %q", got)
	}
	if got := Format([]Item{1, 5, 9}); got != "{1,5,9}" {
		t.Errorf("Format = %q", got)
	}
	if got := Format(nil); got != "{}" {
		t.Errorf("Format(nil) = %q", got)
	}
}

func TestSortAndIsSorted(t *testing.T) {
	s := []Item{5, 1, 3}
	Sort(s)
	if !Equal(s, []Item{1, 3, 5}) {
		t.Errorf("Sort = %v", s)
	}
	if !IsSorted([]Item{1, 2, 3}) {
		t.Error("ascending should be sorted")
	}
	if IsSorted([]Item{1, 1, 2}) {
		t.Error("duplicates are not canonical")
	}
	if IsSorted([]Item{2, 1}) {
		t.Error("descending is not sorted")
	}
	if !IsSorted(nil) || !IsSorted([]Item{9}) {
		t.Error("empty and singleton are sorted")
	}
}

func TestDedup(t *testing.T) {
	cases := []struct{ in, want []Item }{
		{nil, nil},
		{[]Item{3}, []Item{3}},
		{[]Item{3, 1, 3, 1}, []Item{1, 3}},
		{[]Item{2, 2, 2}, []Item{2}},
		{[]Item{4, 1, 2}, []Item{1, 2, 4}},
	}
	for _, c := range cases {
		if got := Dedup(append([]Item(nil), c.in...)); !Equal(got, c.want) {
			t.Errorf("Dedup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	s := []Item{1, 4, 9}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%v, %v) = false", s, x)
		}
	}
	for _, x := range []Item{0, 2, 10} {
		if Contains(s, x) {
			t.Errorf("Contains(%v, %v) = true", s, x)
		}
	}
}

func TestContainsAll(t *testing.T) {
	super := []Item{1, 2, 4, 7, 9}
	if !ContainsAll(super, []Item{2, 7}) {
		t.Error("subset not recognized")
	}
	if !ContainsAll(super, nil) {
		t.Error("empty set is a subset")
	}
	if ContainsAll(super, []Item{2, 8}) {
		t.Error("8 is not in super")
	}
	if ContainsAll([]Item{2}, []Item{1, 2}) {
		t.Error("longer sub cannot be contained")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b []Item
		want int
	}{
		{nil, nil, 0},
		{[]Item{1}, nil, 1},
		{nil, []Item{1}, -1},
		{[]Item{1, 2}, []Item{1, 3}, -1},
		{[]Item{1, 3}, []Item{1, 2}, 1},
		{[]Item{1, 2}, []Item{1, 2}, 0},
		{[]Item{1}, []Item{1, 2}, -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUnionMinusIntersects(t *testing.T) {
	a := []Item{1, 3, 5}
	b := []Item{3, 4}
	if got := Minus(a, b); !Equal(got, []Item{1, 5}) {
		t.Errorf("Minus = %v", got)
	}
	if !Intersects(a, b) {
		t.Error("a and b share 3")
	}
	if Intersects([]Item{1, 2}, []Item{3, 4}) {
		t.Error("disjoint sets intersect")
	}
	if Intersects(nil, a) {
		t.Error("empty never intersects")
	}
}

func TestClone(t *testing.T) {
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
	a := []Item{1, 2}
	b := Clone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone must not share backing storage")
	}
}

// Property: Dedup yields a canonical slice containing exactly the input's
// distinct values.
func TestDedupProperty(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]Item, len(raw))
		seen := map[Item]bool{}
		for i, v := range raw {
			it := Item(v&0x3ff) + 1
			in[i] = it
			seen[it] = true
		}
		out := Dedup(in)
		if !IsSorted(out) {
			return false
		}
		if len(out) != len(seen) {
			return false
		}
		for _, x := range out {
			if !seen[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Minus respects set algebra on random canonical inputs.
func TestSetAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randSet := func() []Item {
		n := rng.Intn(12)
		s := make([]Item, n)
		for i := range s {
			s[i] = Item(rng.Intn(40))
		}
		return Dedup(s)
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randSet(), randSet()
		m := Minus(a, b)
		for _, x := range m {
			if Contains(b, x) {
				t.Fatalf("Minus kept %v from b", x)
			}
		}
		if len(m)+countShared(a, b) != len(a) {
			t.Fatalf("Minus size wrong: |a\\b|=%d shared=%d |a|=%d", len(m), countShared(a, b), len(a))
		}
	}
}

func countShared(a, b []Item) int {
	n := 0
	for _, x := range a {
		if Contains(b, x) {
			n++
		}
	}
	return n
}

// Property: Compare defines a total order consistent with sort.
func TestCompareIsTotalOrder(t *testing.T) {
	sets := [][]Item{nil, {1}, {1, 2}, {1, 3}, {2}, {2, 9}, {5}}
	shuffled := append([][]Item(nil), sets...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sort.Slice(shuffled, func(i, j int) bool { return Compare(shuffled[i], shuffled[j]) < 0 })
	for i := range sets {
		if !Equal(sets[i], shuffled[i]) {
			t.Fatalf("order mismatch at %d: %v vs %v", i, sets[i], shuffled[i])
		}
	}
}
