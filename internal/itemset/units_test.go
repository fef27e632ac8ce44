package itemset

import (
	"math/rand"
	"slices"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// unitTables returns the two receiver shapes CountUnits serves, HPGM's pass
// 2 and pass 3: a Table over pairs and one over 3-itemsets, both over items
// of one to three varint bytes, so units carry multi-byte deltas. Each keys
// only some of the subsets, so probes also miss.
func unitTables() [2]*Table {
	its := []item.Item{1, 5, 127, 128, 200, 300, 16383, 16384, 70000, 1 << 20}
	var pairs, triples [][]item.Item
	ForEachSubset(its, 2, func(s []item.Item) bool {
		pairs = append(pairs, item.Clone(s))
		return true
	})
	ForEachSubset(its, 3, func(s []item.Item) bool {
		if s[0]%2 == 1 || s[2] >= 16384 {
			triples = append(triples, item.Clone(s))
		}
		return true
	})
	return [2]*Table{BuildTable(pairs[:len(pairs)-3]), BuildTable(triples)}
}

// refCountUnits is the receiver CountUnits replaces: the batch decoded unit
// by unit with Dec.Items, each unit counted with one Lookup.
func refCountUnits(tab *Table, b []byte, counts []int64) (units, items, hits int64, err error) {
	var buf []item.Item
	for d := wire.NewDec(b); d.More(); {
		if buf = d.Items(buf[:0]); d.Err() != nil {
			return units, items, hits, d.Err()
		}
		units++
		items += int64(len(buf))
		if id := tab.Lookup(buf); id >= 0 {
			counts[id]++
			hits++
		}
	}
	return units, items, hits, nil
}

// checkCountUnits runs CountUnits and the reference on one batch over tab
// and fails unless both count the same units, items, hits and per-id counts
// and fail with the same error.
func checkCountUnits(t *testing.T, tab *Table, b []byte, unit *[]item.Item) {
	got, want := make([]int64, len(tab.sets)), make([]int64, len(tab.sets))
	u, n, h, err := tab.CountUnits(b, got, unit)
	ru, rn, rh, rerr := refCountUnits(tab, b, want)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("batch % x: error %v, reference %v", b, err, rerr)
	}
	if u != ru || n != rn || h != rh {
		t.Fatalf("batch % x: %d units, %d items, %d hits; reference %d, %d, %d", b, u, n, h, ru, rn, rh)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("batch % x: counts %v, reference %v", b, got, want)
	}
}

// unitBatch encodes the k-subsets of txn as one batch of units behind a
// prefix of earlier units.
func unitBatch(prefix []byte, txn []item.Item, k int) []byte {
	b := slices.Clone(prefix)
	ForEachSubset(txn, k, func(s []item.Item) bool {
		b = wire.AppendItems(b, s)
		return true
	})
	return b
}

// TestCountUnitsMatchesLookup: over random transactions of items up to 2^20
// (one to three varint bytes) encoded as 2- and 3-subset units, CountUnits
// counts exactly what Dec.Items and Lookup count on both Tables, and so it
// does on a random truncation of each batch and with a bit flipped.
func TestCountUnitsMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tabs := unitTables()
	var unit []item.Item
	for round := 0; round < 200; round++ {
		n := 2 + rng.Intn(7)
		txn := make([]item.Item, 0, n)
		for len(txn) < n {
			txn = item.Dedup(append(txn, item.Item(rng.Intn(1<<(7*(1+rng.Intn(3)))-1)+1)))
		}
		for _, tab := range tabs {
			first := tab.sets[0]
			b := unitBatch(wire.AppendItems(nil, first), txn, len(first))
			checkCountUnits(t, tab, b, &unit)
			checkCountUnits(t, tab, b[:rng.Intn(len(b))], &unit)
			bad := slices.Clone(b)
			bad[rng.Intn(len(bad))] ^= byte(1 << rng.Intn(8))
			checkCountUnits(t, tab, bad, &unit)
		}
	}
}

// FuzzCountUnits feeds arbitrary bytes to HPGM's receiver on both Tables:
// it must count what the Dec.Items + Lookup reference counts before the first
// bad unit, and fail exactly when the reference does, with its error.
func FuzzCountUnits(f *testing.F) {
	tabs := unitTables()
	for _, seed := range [][]byte{
		unitBatch(nil, []item.Item{1, 128, 300, 16384, 1 << 20}, 2),
		unitBatch(nil, []item.Item{5, 200, 16383, 70000}, 3),
		unitBatch(wire.AppendItems(nil, []item.Item{127, 128}), []item.Item{1, 5, 127, 128}, 3),
		{3, 0x80, 0x80, 0x80, 0x80, 0x80},                            // an unterminated item varint
		{2, 7, 0},                                                    // a zero delta
		{0x81},                                                       // a truncated length
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // a length past MaxInt64
		{},
	} {
		for which := byte(0); which < 2; which++ {
			f.Add(which, seed)
		}
	}
	var unit []item.Item
	f.Fuzz(func(t *testing.T, which byte, b []byte) {
		checkCountUnits(t, tabs[which%2], b, &unit)
	})
}
