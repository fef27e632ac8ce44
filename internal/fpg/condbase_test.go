package fpg

import (
	"reflect"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// condUnit encodes one cond-base unit the way shipBases does; rank and count
// are raw so a test can write what no sender would.
func condUnit(dst []byte, rank, count uint64, path []item.Item) []byte {
	dst = wire.AppendUvarint(dst, rank)
	dst = wire.AppendUvarint(dst, count)
	return wire.AppendItems(dst, path)
}

// condMiner is the receive-side state of node id of n after the pass-1
// barrier found numLarge large items: the owned base slots, still empty.
func condMiner(id, n, numLarge int) *fpgMiner {
	m := &fpgMiner{numLarge: numLarge, numNodes: n, nodeID: id}
	if id < numLarge {
		m.bases = make([]*pathSet, (numLarge-1-id)/n+1)
	}
	return m
}

// TestApplyBasesRejectsCorruptUnits: a peer's suffix rank and count are
// narrowed through the cursor. A rank of 1<<63 used to become a negative int
// that passed the ownership test on node 0 and indexed m.bases out of range
// (a panic on the exchange receiver); a count above MaxInt64 used to be added
// as a negative support.
func TestApplyBasesRejectsCorruptUnits(t *testing.T) {
	path := []item.Item{0, 2}
	for _, c := range []struct {
		name        string
		rank, count uint64
		ok          bool
	}{
		{"owned rank", 4, 3, true},
		{"largest count", 4, 1<<63 - 1, true},
		{"rank wraps to a negative int", 1 << 63, 3, false},
		{"rank wraps to a small negative int", 1<<64 - 2, 3, false},
		{"count wraps negative", 4, 1<<63 + 5, false},
		{"foreign rank", 5, 3, false},
		{"rank beyond the large items", 8, 3, false},
	} {
		m := condMiner(0, 2, 8)
		items, err := m.applyBases(condUnit(nil, c.rank, c.count, path))
		switch {
		case c.ok && (err != nil || items != 2 || m.bases[c.rank/2].size() != 1 || m.bases[c.rank/2].counts[0] != int64(c.count)):
			t.Errorf("%s: items %d, err %v, bases %+v", c.name, items, err, m.bases[c.rank/2])
		case !c.ok && err == nil:
			t.Errorf("%s: accepted", c.name)
		}
		if !c.ok {
			for q, ps := range m.bases {
				if ps != nil {
					t.Errorf("%s: a rejected unit reached base %d: %+v", c.name, q, ps)
				}
			}
		}
	}
	// A good unit followed by a truncated one: the good one is applied and
	// counted, the batch still fails.
	m := condMiner(0, 2, 8)
	b := condUnit(nil, 2, 9, path)
	b = append(b, condUnit(nil, 4, 1, path)[:3]...)
	if items, err := m.applyBases(b); err == nil || items != 2 || m.bases[1].size() != 1 {
		t.Errorf("truncated batch: items %d, err %v", items, err)
	}
}

// FuzzCondBase feeds arbitrary batches to the cond-base receiver of a small
// miner. It must not panic, and what it accepts must decode to the same bases
// when re-encoded unit by unit.
func FuzzCondBase(f *testing.F) {
	var seed []byte
	for r := uint64(1); r < 8; r++ {
		seed = condUnit(seed, r-r%2, r*3, []item.Item{0, item.Item(r)})
	}
	f.Add(byte(0), seed)
	f.Add(byte(1), condUnit(nil, 3, 1, nil))
	f.Add(byte(0), condUnit(nil, 1<<63, 1, []item.Item{1}))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, node byte, data []byte) {
		id := int(node % 2)
		m := condMiner(id, 2, 8)
		if _, err := m.applyBases(data); err != nil {
			return
		}
		var re []byte
		for q, ps := range m.bases {
			for i := 0; ps != nil && i < ps.size(); i++ {
				if ps.counts[i] < 0 {
					t.Fatalf("negative support %d accepted", ps.counts[i])
				}
				re = condUnit(re, uint64(id+q*2), uint64(ps.counts[i]), ps.path(i))
			}
		}
		m2 := condMiner(id, 2, 8)
		if _, err := m2.applyBases(re); err != nil || !reflect.DeepEqual(m.bases, m2.bases) {
			t.Fatalf("re-encoded bases decode differently (err %v)", err)
		}
	})
}
