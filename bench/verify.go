package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// digest is the FNV-64 of a mining result in its canonical (size, lex)
// order: equal digests mean equal itemsets with equal counts.
func digest(large [][]itemset.Counted) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for k, level := range large {
		put(uint64(k + 1))
		put(uint64(len(level)))
		for _, c := range level {
			for _, x := range c.Items {
				put(uint64(x))
			}
			put(uint64(c.Count))
		}
	}
	return h.Sum64()
}

// countItemsets flattens the level sizes.
func countItemsets(large [][]itemset.Counted) int {
	n := 0
	for _, l := range large {
		n += len(l)
	}
	return n
}

// oracle checks a mining result against the raw transactions with code that
// shares nothing with the miners: no candidate generation, no hash tables,
// no taxonomy views. It cannot prove completeness above size 1 without
// re-mining, so sizes >= 2 are checked by exact recount of a seeded sample of
// reported itemsets, a seeded sample of unreported pairs, and two structural
// laws over the whole result. Each check is one operation; the returned
// errors are the failed ones.
func oracle(tax *taxonomy.Taxonomy, db txn.Scanner, large [][]itemset.Counted, minCount int64, samples int, rng *rand.Rand) (checks int, failures []error) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Errorf(format, args...))
	}

	// Closure of every transaction, by walking parent links: the oracle's
	// own extension, independent of taxonomy.ExtendTransaction.
	n := tax.NumItems()
	stamp := make([]int, n)
	counts := make([]int64, n)
	var closures [][]item.Item
	tid := 0
	err := db.Scan(func(t txn.Transaction) error {
		tid++
		var cl []item.Item
		for _, x := range t.Items {
			for y := x; y != item.None; y = tax.Parent(y) {
				if stamp[y] == tid {
					break // this ancestor chain is already in
				}
				stamp[y] = tid
				counts[y]++
				cl = append(cl, y)
			}
		}
		item.Sort(cl)
		closures = append(closures, cl)
		return nil
	})
	checks++
	if err != nil {
		fail("oracle: scan: %v", err)
		return checks, failures
	}

	// L1, complete: every item at or above minCount, with its exact count.
	checks++
	var l1 []itemset.Counted
	if len(large) > 0 {
		l1 = large[0]
	}
	got := make(map[item.Item]int64, len(l1))
	for _, c := range l1 {
		if len(c.Items) != 1 {
			fail("oracle: L1 entry %v is not a single item", c.Items)
			continue
		}
		got[c.Items[0]] = c.Count
	}
	want := 0
	for x, c := range counts {
		if c < minCount {
			continue
		}
		want++
		if g, ok := got[item.Item(x)]; !ok || g != c {
			fail("oracle: item %d has support %d, result says %d (present=%v)", x, c, g, ok)
		}
	}
	if want != len(got) {
		fail("oracle: result has %d large items, brute force finds %d", len(got), want)
	}

	// Index of everything reported, for the structural laws.
	support := make(map[string]int64)
	for _, level := range large {
		for _, c := range level {
			support[itemset.Key(c.Items)] = c.Count
		}
	}

	// Downward closure and ancestor-freedom over the whole result.
	checks += 2
	sub := make([]item.Item, 0, 16)
	for k, level := range large {
		for _, c := range level {
			if len(c.Items) != k+1 || !item.IsSorted(c.Items) {
				fail("oracle: %v at level %d is not a canonical %d-itemset", c.Items, k+1, k+1)
				continue
			}
			if c.Count < minCount {
				fail("oracle: %v reported with support %d below the threshold %d", c.Items, c.Count, minCount)
			}
			if k == 0 {
				continue
			}
			for i, x := range c.Items {
				for _, y := range c.Items[i+1:] {
					if tax.IsAncestor(x, y) || tax.IsAncestor(y, x) {
						fail("oracle: %v holds an item with its ancestor", c.Items)
					}
				}
			}
			for drop := range c.Items {
				sub = append(sub[:0], c.Items[:drop]...)
				sub = append(sub, c.Items[drop+1:]...)
				if s, ok := support[itemset.Key(sub)]; !ok || s < c.Count {
					fail("oracle: %v (support %d) has subset %v with support %d (present=%v)", c.Items, c.Count, sub, s, ok)
				}
			}
		}
	}

	recount := func(set []item.Item) int64 {
		var c int64
		for _, cl := range closures {
			if item.ContainsAll(cl, set) {
				c++
			}
		}
		return c
	}

	// Sampled exact recount of reported itemsets of size >= 2.
	var pool []itemset.Counted
	for _, level := range large[min(1, len(large)):] {
		pool = append(pool, level...)
	}
	for i := 0; i < samples && len(pool) > 0; i++ {
		c := pool[rng.Intn(len(pool))]
		checks++
		if got := recount(c.Items); got != c.Count {
			fail("oracle: %v reported with support %d, recount finds %d", c.Items, c.Count, got)
		}
	}

	// Sampled completeness at size 2: a pair of large items that is not
	// reported and is not an item with its ancestor must be below threshold.
	if len(large) > 1 && len(l1) > 1 {
		for i := 0; i < samples; i++ {
			a, b := l1[rng.Intn(len(l1))].Items[0], l1[rng.Intn(len(l1))].Items[0]
			if a == b || tax.IsAncestor(a, b) || tax.IsAncestor(b, a) {
				continue
			}
			if a > b {
				a, b = b, a
			}
			pair := []item.Item{a, b}
			if _, ok := support[itemset.Key(pair)]; ok {
				continue
			}
			checks++
			if got := recount(pair); got >= minCount {
				fail("oracle: pair %v has support %d >= %d but is not reported", pair, got, minCount)
			}
		}
	}
	return checks, failures
}
