package fpg

import (
	"reflect"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// condUnit encodes one cond-base unit the way shipBases does; rank and count
// are raw so a test can write what no sender would.
func condUnit(dst []byte, rank, count uint64, path []item.Item) []byte {
	dst = wire.AppendUvarint(dst, rank)
	dst = wire.AppendUvarint(dst, count)
	return wire.AppendItems(dst, path)
}

// condSupport is every item's global support in a condMiner: the largest
// count a cond-base unit may carry.
const condSupport = 1000

// condMiner is the receive-side state of node id of n after the pass-1
// barrier found numLarge large items, item i at rank i with support
// condSupport: the owned base slots, still empty.
func condMiner(id, n, numLarge int) *fpgMiner {
	m := &fpgMiner{numLarge: numLarge, numNodes: n, nodeID: id}
	m.itemCounts = make([]int64, numLarge)
	m.itemAt = make([]item.Item, numLarge)
	for i := range numLarge {
		m.itemCounts[i] = condSupport
		m.itemAt[i] = item.Item(i)
	}
	if id < numLarge {
		m.bases = make([][][]byte, (numLarge-1-id)/n+1)
	}
	return m
}

// baseUnit is one decoded cond-base unit.
type baseUnit struct {
	count int64
	path  []item.Item
}

// decodedBases is what mineTask would insert for every owned slot: the kept
// runs decoded through baseUnits, in arrival order.
func decodedBases(m *fpgMiner) [][]baseUnit {
	out := make([][]baseUnit, len(m.bases))
	for q := range m.bases {
		m.baseUnits(q, nil, func(path []item.Item, count int64) {
			out[q] = append(out[q], baseUnit{count, append([]item.Item(nil), path...)})
		})
	}
	return out
}

// keptBytes is the total length of every run m holds.
func keptBytes(m *fpgMiner) int {
	n := 0
	for _, runs := range m.bases {
		for _, run := range runs {
			n += len(run)
		}
	}
	return n
}

// TestApplyBasesRejectsCorruptUnits: a peer's suffix rank and count are
// narrowed through the cursor. A rank of 1<<63 used to become a negative int
// that passed the ownership test on node 0 and indexed m.bases out of range
// (a panic on the exchange receiver); a count above MaxInt64 used to be added
// as a negative support. A count is one tree node's, so it lies in [1, the
// suffix item's support]: a larger one could overflow a task's rank tallies,
// and a zero one would break the tally's first-touch test. A prefix path
// holds only ranks below its suffix rank, the range the task's tally vector
// is indexed by. A rejected unit reaches no slot.
func TestApplyBasesRejectsCorruptUnits(t *testing.T) {
	path := []item.Item{0, 2}
	for _, c := range []struct {
		name        string
		rank, count uint64
		ok          bool
	}{
		{"owned rank", 4, 3, true},
		{"largest count", 4, condSupport, true},
		{"count above the suffix support", 4, condSupport + 1, false},
		{"zero count", 4, 0, false},
		{"count overflows a tally", 4, 1<<63 - 1, false},
		{"rank wraps to a negative int", 1 << 63, 3, false},
		{"rank wraps to a small negative int", 1<<64 - 2, 3, false},
		{"count wraps negative", 4, 1<<63 + 5, false},
		{"foreign rank", 5, 3, false},
		{"rank beyond the large items", 8, 3, false},
	} {
		m := condMiner(0, 2, 8)
		items, err := m.applyBases(condUnit(nil, c.rank, c.count, path))
		if c.ok {
			want := []baseUnit{{int64(c.count), path}}
			if got := decodedBases(m)[c.rank/2]; err != nil || items != 2 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: items %d, err %v, base %+v", c.name, items, err, got)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		for q, runs := range m.bases {
			if len(runs) != 0 {
				t.Errorf("%s: a rejected unit reached base %d: %x", c.name, q, runs)
			}
		}
	}
	// Prefix paths that reach the suffix rank, or run past every large item.
	for _, p := range [][]item.Item{{0, 4}, {1, 6}, {9}} {
		m := condMiner(0, 2, 8)
		if _, err := m.applyBases(condUnit(nil, 4, 3, p)); err == nil || len(m.bases[2]) != 0 {
			t.Errorf("path %v for rank 4: err %v, base %x", p, err, m.bases[2])
		}
	}
	// A good unit followed by a truncated one: the good one is kept and
	// counted, the batch still fails.
	m := condMiner(0, 2, 8)
	b := condUnit(nil, 2, 9, []item.Item{0, 1}) // a path below rank 2
	good := len(b)
	b = append(b, condUnit(nil, 4, 1, path)[:3]...)
	items, err := m.applyBases(b)
	if got := decodedBases(m); err == nil || items != 2 || len(got[1]) != 1 || keptBytes(m) != good {
		t.Errorf("truncated batch: items %d, err %v, bases %+v", items, err, got)
	}
}

// TestApplyBasesInterleavedRanks: one batch carries ranks r1, r2, r1. The
// slot of r1 gets two runs, and both r1 units reach r1's task in order.
func TestApplyBasesInterleavedRanks(t *testing.T) {
	m := condMiner(0, 2, 8)
	var b []byte
	b = condUnit(b, 2, 5, []item.Item{0})
	b = condUnit(b, 4, 6, []item.Item{1, 3})
	b = condUnit(b, 2, 7, []item.Item{1})
	if _, err := m.applyBases(b); err != nil {
		t.Fatal(err)
	}
	if len(m.bases[1]) != 2 || len(m.bases[2]) != 1 {
		t.Fatalf("runs per slot: %d, %d; want 2, 1", len(m.bases[1]), len(m.bases[2]))
	}
	want := [][]baseUnit{nil, {{5, []item.Item{0}}, {7, []item.Item{1}}}, {{6, []item.Item{1, 3}}}, nil}
	if got := decodedBases(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded bases %+v, want %+v", got, want)
	}
}

// TestApplyBasesCopiesBatch: the exchange releases every batch, remote or
// loopback, once apply returns, and the free list hands it to the next
// sender, so the kept bases must not alias the caller's bytes. A batch
// is applied, the caller's slice overwritten, and the task mined from what
// was kept.
func TestApplyBasesCopiesBatch(t *testing.T) {
	m := condMiner(0, 1, 3)
	m.tax = taxonomy.MustNew([]item.Item{item.None, item.None, item.None})
	m.itemAt = []item.Item{0, 1, 2}
	var b []byte
	b = condUnit(b, 2, 4, []item.Item{0, 1})
	b = condUnit(b, 2, 3, []item.Item{0})
	if _, err := m.applyBases(b); err != nil {
		t.Fatal(err)
	}
	clear(b)
	got := m.mineTask(2, 1, newMineScratch(m.numLarge))
	want := []itemset.Counted{
		{Items: []item.Item{0, 2}, Count: 7},
		{Items: []item.Item{1, 2}, Count: 4},
		{Items: []item.Item{0, 1, 2}, Count: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mined %+v after the batch was overwritten, want %+v", got, want)
	}
}

// FuzzCondBase feeds arbitrary batches to the cond-base receiver of a small
// miner. It must not panic. What it keeps of a rejected batch is the prefix
// before the rejected unit, which it accepts whole; an accepted batch is kept
// whole and, re-encoded unit by unit, decodes to the same bases.
func FuzzCondBase(f *testing.F) {
	var seed []byte
	for r := uint64(1); r < 8; r++ {
		seed = condUnit(seed, r-r%2, r*3, []item.Item{0, item.Item(r)})
	}
	f.Add(byte(0), seed)
	f.Add(byte(1), condUnit(nil, 3, 1, nil))
	f.Add(byte(0), condUnit(nil, 1<<63, 1, []item.Item{1}))
	f.Add(byte(0), condUnit(condUnit(nil, 2, 5, []item.Item{1}), 4, condSupport+1, []item.Item{0, 3}))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, node byte, data []byte) {
		id := int(node % 2)
		m := condMiner(id, 2, 8)
		_, err := m.applyBases(data)
		got := decodedBases(m)
		kept := keptBytes(m)
		if err != nil {
			m2 := condMiner(id, 2, 8)
			if _, err := m2.applyBases(data[:kept]); err != nil || !reflect.DeepEqual(decodedBases(m2), got) {
				t.Fatalf("kept %d bytes of a rejected batch that do not apply alone (err %v)", kept, err)
			}
			return
		}
		if kept != len(data) {
			t.Fatalf("accepted batch of %d bytes kept as %d", len(data), kept)
		}
		var re []byte
		for q, units := range got {
			for _, u := range units {
				if u.count < 1 || u.count > condSupport {
					t.Fatalf("count %d outside [1, %d] accepted", u.count, condSupport)
				}
				re = condUnit(re, uint64(id+q*2), uint64(u.count), u.path)
			}
		}
		m2 := condMiner(id, 2, 8)
		if _, err := m2.applyBases(re); err != nil || !reflect.DeepEqual(got, decodedBases(m2)) {
			t.Fatalf("re-encoded bases decode differently (err %v)", err)
		}
	})
}
