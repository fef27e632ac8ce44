package fpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// condUnit appends one cond-base unit, count then path; count is raw so a
// test can write what no sender would.
func condUnit(dst []byte, count uint64, path []item.Item) []byte {
	return wire.AppendItems(wire.AppendUvarint(dst, count), path)
}

// condRun appends one cond-base run the way a baseWalker sends it: the rank,
// the number of units, then the units' bytes. Rank and unit count are raw so
// a test can write what no sender would.
func condRun(dst []byte, rank, units uint64, body []byte) []byte {
	dst = wire.AppendUvarint(wire.AppendUvarint(dst, rank), units)
	return append(dst, body...)
}

// oneUnitRun is a run of rank's single unit (count, path).
func oneUnitRun(dst []byte, rank, count uint64, path []item.Item) []byte {
	return condRun(dst, rank, 1, condUnit(nil, count, path))
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

// keptBytes is the total length of the unit bytes of every run m holds.
func keptBytes(m *fpgMiner) int {
	n := 0
	for _, runs := range m.bases {
		for _, run := range runs {
			n += len(run)
		}
	}
	return n
}

// TestApplyBasesRejectsCorruptUnits: a peer's run header and units are
// narrowed through the cursor. A rank of 1<<63 used to become a negative int
// that passed the ownership test on node 0 and indexed m.bases out of range
// (a panic on the exchange receiver); a count above MaxInt64 used to be added
// as a negative support. Rank 0 is never a task: its prefix paths are empty.
// A run holds at least one unit, and no more than its bytes can hold. A count
// is one tree node's, so it lies in [1, the suffix item's support]: a larger
// one could overflow a task's rank tallies, and a zero one would break the
// tally's first-touch test. A prefix path holds only ranks below its suffix
// rank, the range the task's tally vector is indexed by. A rejected run
// reaches no slot.
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
		{"rank zero", 0, 3, false},
		{"rank wraps to a negative int", 1 << 63, 3, false},
		{"rank wraps to a small negative int", 1<<64 - 2, 3, false},
		{"count wraps negative", 4, 1<<63 + 5, false},
		{"foreign rank", 5, 3, false},
		{"rank beyond the large items", 8, 3, false},
	} {
		m := condMiner(0, 2, 8)
		items, err := m.applyBases(oneUnitRun(nil, c.rank, c.count, path))
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
		if k := keptBytes(m); k != 0 {
			t.Errorf("%s: a rejected run kept %d bytes: %x", c.name, k, m.bases)
		}
	}
	// Prefix paths that reach the suffix rank, or run past every large item.
	for _, p := range [][]item.Item{{0, 4}, {1, 6}, {9}} {
		m := condMiner(0, 2, 8)
		if _, err := m.applyBases(oneUnitRun(nil, 4, 3, p)); err == nil || len(m.bases[2]) != 0 {
			t.Errorf("path %v for rank 4: err %v, base %x", p, err, m.bases[2])
		}
	}
	// Run headers whose unit count the bytes do not match.
	two := condUnit(condUnit(nil, 5, path), 6, []item.Item{1})
	for _, c := range []struct {
		name  string
		units uint64
		body  []byte
	}{
		{"a run of zero units", 0, nil},
		{"zero units before unit bytes", 0, two},
		{"more units than bytes", 1 << 20, two},
		{"one unit more than sent", 3, two},
	} {
		m := condMiner(0, 2, 8)
		if _, err := m.applyBases(condRun(nil, 4, c.units, c.body)); err == nil || keptBytes(m) != 0 {
			t.Errorf("%s: err %v, bases %x", c.name, err, m.bases)
		}
	}
	// A good run followed by a run whose second unit is bad: the good run is
	// kept and counted, no unit of the bad one is, and the batch still fails.
	m := condMiner(0, 2, 8)
	good := condUnit(nil, 9, []item.Item{0, 1}) // a path below rank 2
	b := condRun(nil, 2, 1, good)
	b = condRun(b, 4, 2, condUnit(condUnit(nil, 1, path), 0, path))
	items, err := m.applyBases(b)
	if got := decodedBases(m); err == nil || items != 2 || len(got[1]) != 1 || len(got[2]) != 0 || keptBytes(m) != len(good) {
		t.Errorf("bad second run: items %d, err %v, bases %+v", items, err, got)
	}
	// The same with a truncated second run.
	m = condMiner(0, 2, 8)
	b = condRun(nil, 2, 1, good)
	b = append(b, oneUnitRun(nil, 4, 1, path)[:4]...)
	items, err = m.applyBases(b)
	if got := decodedBases(m); err == nil || items != 2 || len(got[1]) != 1 || keptBytes(m) != len(good) {
		t.Errorf("truncated batch: items %d, err %v, bases %+v", items, err, got)
	}
}

// TestApplyBasesInterleavedRanks: one batch carries runs of ranks r1, r2, r1.
// The slot of r1 gets two runs, and every r1 unit reaches r1's task in order.
func TestApplyBasesInterleavedRanks(t *testing.T) {
	m := condMiner(0, 2, 8)
	var b []byte
	b = condRun(b, 2, 2, condUnit(condUnit(nil, 5, []item.Item{0}), 4, []item.Item{0, 1}))
	b = oneUnitRun(b, 4, 6, []item.Item{1, 3})
	b = oneUnitRun(b, 2, 7, []item.Item{1})
	if _, err := m.applyBases(b); err != nil {
		t.Fatal(err)
	}
	if len(m.bases[1]) != 2 || len(m.bases[2]) != 1 {
		t.Fatalf("runs per slot: %d, %d; want 2, 1", len(m.bases[1]), len(m.bases[2]))
	}
	want := [][]baseUnit{nil, {{5, []item.Item{0}}, {4, []item.Item{0, 1}}, {7, []item.Item{1}}}, {{6, []item.Item{1, 3}}}, nil}
	if got := decodedBases(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded bases %+v, want %+v", got, want)
	}
}

// TestApplyBasesCopiesBatch: the exchange releases every peer batch once
// apply returns, and the free list hands it to the next sender, so the kept
// bases must not alias the caller's bytes. A batch
// is applied, the caller's slice overwritten, and the task mined from what
// was kept.
func TestApplyBasesCopiesBatch(t *testing.T) {
	m := condMiner(0, 1, 3)
	m.tax = taxonomy.MustNew([]item.Item{item.None, item.None, item.None})
	m.itemAt = []item.Item{0, 1, 2}
	b := condRun(nil, 2, 2, condUnit(condUnit(nil, 4, []item.Item{0, 1}), 3, []item.Item{0}))
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
// miner. It must not panic. A batch is read run by run from its start, so a
// rejected batch must keep exactly what its longest prefix that applies
// cleanly keeps: the runs before the rejected one, whole. What a clean batch
// (or that prefix) keeps must be every unit of every run, in order, as a
// plain parse without the receiver's checks reads them, and each of those
// units must pass the checks.
func FuzzCondBase(f *testing.F) {
	var seed []byte
	for r := uint64(2); r < 8; r++ {
		rank := r - r%2
		seed = condRun(seed, rank, 2, condUnit(condUnit(nil, r*3, []item.Item{0}), r, []item.Item{0, item.Item(rank - 1)}))
	}
	f.Add(byte(0), seed)
	f.Add(byte(1), oneUnitRun(nil, 3, 1, nil))
	f.Add(byte(0), oneUnitRun(nil, 1<<63, 1, []item.Item{1}))
	f.Add(byte(0), oneUnitRun(oneUnitRun(nil, 2, 5, []item.Item{1}), 4, condSupport+1, []item.Item{0, 3}))
	f.Add(byte(0), condRun(nil, 2, 0, nil))
	f.Add(byte(1), condRun(nil, 3, 9, condUnit(nil, 1, []item.Item{0})))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, node byte, data []byte) {
		id := int(node % 2)
		m := condMiner(id, 2, 8)
		_, err := m.applyBases(data)
		got := decodedBases(m)
		clean := data
		for n := len(data) - 1; err != nil; n-- {
			if n < 0 {
				t.Fatal("the empty batch was rejected")
			}
			m2 := condMiner(id, 2, 8)
			if _, err = m2.applyBases(data[:n]); err == nil {
				if !reflect.DeepEqual(got, decodedBases(m2)) {
					t.Fatalf("a rejected batch kept %+v, its longest clean prefix (%d bytes) %+v", got, n, decodedBases(m2))
				}
				clean = data[:n]
			}
		}
		want := make([][]baseUnit, len(got))
		d := wire.NewDec(clean)
		for d.More() {
			r, n := d.Int(), d.Count(2)
			for range n {
				u := baseUnit{count: d.I64(), path: d.Items(nil)}
				if r == 0 || r%2 != id || u.count < 1 || u.count > condSupport || len(u.path) > 0 && int(u.path[len(u.path)-1]) >= r {
					t.Fatalf("unit %+v accepted for rank %d", u, r)
				}
				want[r/2] = append(want[r/2], u)
			}
		}
		if d.Err() != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("kept %+v, the runs parse as %+v (err %v)", got, want, d.Err())
		}
	})
}

// shipProbe is an fpgMiner whose growth pass ends with the cond-base
// exchange. It records the units the reference climb extracts from its forest
// and the bases its owned slots received, with the runs and run bytes that
// carried them.
type shipProbe struct {
	*fpgMiner
	climbed     []string // every (rank, count, path) unit the climb extracts
	got         [][]baseUnit
	runs, bytes int64
}

func (p *shipProbe) CountPass(n *driver.Node, _ int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	forest, err := p.buildForest(n, st)
	if err != nil {
		return driver.PassOutcome{}, err
	}
	for _, t := range forest {
		for r := item.Item(1); int(r) < p.numLarge; r++ {
			for _, u := range condBase(p.fpgMiner, t, r) {
				p.climbed = append(p.climbed, fmt.Sprint(int(r), u.count, u.path))
			}
		}
	}
	if err := p.exchangeBases(n, forest, st); err != nil {
		return driver.PassOutcome{}, err
	}
	p.got = decodedBases(p.fpgMiner)
	for q, runs := range p.bases {
		for _, run := range runs {
			units := 0
			one := &fpgMiner{bases: [][][]byte{{run}}}
			one.baseUnits(0, nil, func([]item.Item, int64) { units++ })
			p.runs++
			p.bytes += int64(len(condRun(nil, uint64(q*p.numNodes+p.nodeID), uint64(units), run)))
		}
	}
	return driver.PassOutcome{}, nil
}

// checkShipBases runs the cond-base exchange over db split across nodes,
// each node's forest built by workers trees, and checks that the owners
// receive, as a multiset, exactly the units the header-chain climb with the
// taxonomy filter extracts from every node's forest. The ship-bases spans
// must count exactly the units, runs and run bytes received. It returns the
// longest unit received, in bytes.
func checkShipBases(t *testing.T, name string, tax *taxonomy.Taxonomy, db *txn.DB, nodes, workers int, minSup float64) int {
	t.Helper()
	tr := obs.NewTracer()
	cfg := Config{MinSupport: minSup, Workers: workers, Tracer: tr}
	if err := check(&cfg); err != nil {
		t.Fatal(err)
	}
	probes := make([]*shipProbe, nodes)
	parts := partsOf(db, nodes)
	if _, err := driver.Run(runSpec(cfg), tax, parts, func(i int) (driver.Miner, error) {
		probes[i] = &shipProbe{fpgMiner: newFpgMiner(tax, cfg)}
		return probes[i], nil
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var want, got []string
	longest := 0
	spans := map[string]int64{}
	recs, _ := tr.ExportSince(0)
	for _, rec := range recs {
		if rec.Name == "ship-bases" {
			for _, a := range rec.Args {
				spans[a.Key] += a.Val
			}
		}
	}
	for id, p := range probes {
		spans["runs"] -= p.runs
		spans["bytes"] -= p.bytes
		want = append(want, p.climbed...)
		for q, units := range p.got {
			for _, u := range units {
				got = append(got, fmt.Sprint(q*nodes+id, u.count, u.path))
				longest = max(longest, len(condUnit(nil, uint64(u.count), u.path)))
			}
		}
	}
	if spans["units"] -= int64(len(got)); spans["units"] != 0 || spans["runs"] != 0 || spans["bytes"] != 0 {
		t.Fatalf("%s: ship-bases spans count more (or fewer) units, runs and bytes than were received: %v", name, spans)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		extra, missing := multisetDiff(got, want), multisetDiff(want, got)
		t.Fatalf("%s: owners received %d units, the climb extracts %d; received only %v, extracted only %v",
			name, len(got), len(want), extra, missing)
	}
	return longest
}

// multisetDiff returns the elements of sorted a that sorted b lacks, as many
// times as a holds them more often.
func multisetDiff(a, b []string) []string {
	var out []string
	for _, x := range a {
		if i, ok := slices.BinarySearch(b, x); ok {
			b = slices.Delete(slices.Clone(b), i, i+1)
		} else {
			out = append(out, x)
		}
	}
	return out
}

// TestShipBasesMatchesClimb: the preorder walk ships the same conditional
// pattern bases as a climb up every header-chain node's parent chain, over
// random taxonomies, random transactions (some holding an item and its
// ancestor), 1 to 3 nodes and 1 to 3 worker trees per node. Every trial also
// runs 1 node, where every rank is owned and nothing ships, and 4 nodes, each
// at 3 worker trees, so the own runs of several walkers always join their
// slots. The units reach their owners in per-rank runs whose order the trees
// and fabric decide, so bases compare as multisets.
func TestShipBasesMatchesClimb(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 30; trial++ {
		// Ids are shuffled, so an item and its ancestor with equal supports
		// rank either way round.
		n := 4 + rng.Intn(30)
		id := rng.Perm(n)
		parent := make([]item.Item, n)
		for i := range parent {
			parent[id[i]] = item.None
			if i > 0 && rng.Intn(3) > 0 {
				parent[id[i]] = item.Item(id[rng.Intn(i)])
			}
		}
		tax := taxonomy.MustNew(parent)
		var txns []txn.Transaction
		for tid := range 20 + rng.Intn(80) {
			var items []item.Item
			for range 1 + rng.Intn(6) {
				x := item.Item(rng.Intn(n))
				items = append(items, x)
				if p := tax.Parent(x); p != item.None && rng.Intn(3) == 0 {
					items = append(items, p)
				}
			}
			slices.Sort(items)
			txns = append(txns, txn.Transaction{TID: int64(tid), Items: slices.Compact(items)})
		}
		db := txn.NewDB(txns)
		check := func(nodes, w int, minSup float64) {
			checkShipBases(t, fmt.Sprintf("trial %d: %d nodes x %d workers, minsup %g", trial, nodes, w, minSup), tax, db, nodes, w, minSup)
		}
		for _, w := range []int{1, 2, 3} {
			nodes := 1 + rng.Intn(3)
			check(nodes, w, []float64{0.01, 0.05, 0.1}[rng.Intn(3)])
		}
		for _, nodes := range []int{1, 4} {
			check(nodes, 3, []float64{0.01, 0.05, 0.1}[trial%3])
		}
	}
}

// TestShipBasesLongUnit: a unit longer than a whole stage goes to its owner
// alone and leaves the neighbouring ranks' stages of the same slab intact.
// Three copies of a 600-item transaction give every tree a path whose deepest
// nodes' units exceed the stage; short transactions stage units for the ranks
// around them.
func TestShipBasesLongUnit(t *testing.T) {
	const n = 700
	parent := make([]item.Item, n)
	for i := range parent {
		parent[i] = item.None
		if i >= 600 {
			parent[i] = item.Item(i % 600)
		}
	}
	tax := taxonomy.MustNew(parent)
	long := make([]item.Item, 600)
	for i := range long {
		long[i] = item.Item(i)
	}
	var txns []txn.Transaction
	for tid := range 3 {
		txns = append(txns, txn.Transaction{TID: int64(tid), Items: long})
	}
	rng := rand.New(rand.NewSource(512))
	for tid := 3; tid < 300; tid++ {
		items := []item.Item{item.Item(rng.Intn(n))}
		for range rng.Intn(8) {
			items = append(items, item.Item(rng.Intn(n)))
		}
		slices.Sort(items)
		txns = append(txns, txn.Transaction{TID: int64(tid), Items: slices.Compact(items)})
	}
	if longest := checkShipBases(t, "long unit", tax, txn.NewDB(txns), 2, 2, 0.001); longest <= stageBytes {
		t.Fatalf("the longest unit is %d bytes, not longer than a %d-byte stage", longest, stageBytes)
	}
}
