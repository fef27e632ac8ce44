package fpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pgarm/internal/driver"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/obs"
	"pgarm/internal/taxonomy"
)

// bruteTree is the tally-then-insert step by definition: tally every rank
// over the whole base, then insert each path cut to the ranks whose tally
// reaches minCount, in base order.
func bruteTree(base []baseUnit, numRanks int, minCount int64) (*fpTree, []rankCount) {
	tally := make([]int64, numRanks)
	for _, u := range base {
		for _, pr := range u.path {
			tally[pr] += u.count
		}
	}
	var surv []rankCount
	for pr, c := range tally {
		if c >= minCount && c > 0 {
			surv = append(surv, rankCount{item.Item(pr), c})
		}
	}
	want := newFPTree(numRanks, 1)
	for _, u := range base {
		var keep []item.Item
		for _, pr := range u.path {
			if tally[pr] >= minCount {
				keep = append(keep, pr)
			}
		}
		want.add(keep, u.count)
	}
	return want, surv
}

// condBase extracts rank r's conditional base from t with the taxonomy
// filter, in extraction order.
func condBase(m *fpgMiner, t *fpTree, r item.Item) []baseUnit {
	var base []baseUnit
	x := m.itemAt[r]
	skip := func(pr item.Item) bool { return m.conflicts(m.itemAt[pr], x) }
	extractPaths(t, r, skip, nil, func(path []item.Item, count int64) {
		base = append(base, baseUnit{count, slices.Clone(path)})
	})
	return base
}

// rankTotals sums every rank's header chain in t.
func rankTotals(t *fpTree) map[item.Item]int64 {
	out := map[item.Item]int64{}
	for _, r := range t.present {
		for ni := t.heads[r]; ni != -1; ni = t.nodes[ni].next {
			out[r] += t.nodes[ni].count
		}
	}
	return out
}

// checkTallyInsert runs one tally-then-insert step (condTree or baseTree)
// with and without building and compares it against bruteTree over base:
// the same survivors, the same tree node for node, per-rank tree totals
// equal to the survivors' counts, and the tallies left clear. It returns the
// built tree.
func checkTallyInsert(t *testing.T, name string, numRanks int, base []baseUnit, minCount int64,
	step func(build bool, sc *mineScratch) (*fpTree, []rankCount)) *fpTree {
	t.Helper()
	sc := newMineScratch(numRanks)
	want, wantSurv := bruteTree(base, numRanks, minCount)
	var built *fpTree
	for _, build := range []bool{false, true} {
		sub, surv := step(build, sc)
		if len(surv)+len(wantSurv) > 0 && !reflect.DeepEqual(surv, wantSurv) {
			t.Fatalf("%s build=%v: survivors %v, want %v", name, build, surv, wantSurv)
		}
		for pr, c := range sc.tally {
			if c != 0 {
				t.Fatalf("%s build=%v: rank %d tally %d left behind", name, build, pr, c)
			}
		}
		if !build || len(wantSurv) == 0 {
			if sub != nil {
				t.Fatalf("%s build=%v: built a tree for %d survivors", name, build, len(wantSurv))
			}
			continue
		}
		if !reflect.DeepEqual(sub.nodes, want.nodes) || !reflect.DeepEqual(sub.present, want.present) ||
			!reflect.DeepEqual(sub.heads, want.heads) {
			t.Fatalf("%s: tree %+v, want %+v", name, sub.nodes, want.nodes)
		}
		totals := rankTotals(sub)
		if len(totals) != len(surv) {
			t.Fatalf("%s: tree holds ranks %v, survivors %v", name, totals, surv)
		}
		for _, s := range surv {
			if totals[s.rank] != s.count {
				t.Fatalf("%s: rank %d totals %d in the tree, survivor count %d", name, s.rank, totals[s.rank], s.count)
			}
		}
		built = sub
	}
	return built
}

// checkCondTree checks condTree for suffix rank r of tr against the
// taxonomy-filtered base extracted from tr.
func checkCondTree(t *testing.T, name string, m *fpgMiner, tr *fpTree, r item.Item, minCount int64) *fpTree {
	t.Helper()
	return checkTallyInsert(t, name, m.numLarge, condBase(m, tr, r), minCount, func(build bool, sc *mineScratch) (*fpTree, []rankCount) {
		return m.condTree(tr, r, minCount, 3, build, sc)
	})
}

// TestCondTreeKeepsFrequentRanks: the conditional tree a survivor hands the
// recursion holds only the ranks that are frequent in its base and not in
// the ancestor relation with its item, and its per-rank totals are the
// survivors' counts. Output cannot show a tree that also stores the other
// ranks — they only cost time — so this is the test that does.
func TestCondTreeKeepsFrequentRanks(t *testing.T) {
	// Item i at rank i; item 1 is item 5's parent.
	none := item.None
	m := &fpgMiner{
		tax:      taxonomy.MustNew([]item.Item{none, none, none, none, none, 1}),
		itemAt:   []item.Item{0, 1, 2, 3, 4, 5},
		numLarge: 6,
	}
	tr := newFPTree(6, 1)
	tr.add([]item.Item{0, 1, 2, 5}, 3)
	tr.add([]item.Item{0, 2, 3, 5}, 2)
	tr.add([]item.Item{1, 4, 5}, 1)
	tr.add([]item.Item{0, 5}, 1)
	tr.add([]item.Item{0, 2, 3}, 4)
	// Rank 5's base tallies 0:6, 1:4, 2:5, 3:2, 4:1 at minCount 3: rank 1
	// would survive but for the taxonomy, ranks 3 and 4 are infrequent.
	sub := checkCondTree(t, "hand-built", m, tr, 5, 3)
	if sub == nil {
		t.Fatal("hand-built: no tree")
	}
	if got := rankTotals(sub); !reflect.DeepEqual(got, map[item.Item]int64{0: 6, 2: 5}) {
		t.Fatalf("hand-built: tree totals %v, want ranks 0:6 and 2:5 only", got)
	}

	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(10)
		parent := make([]item.Item, n)
		for i := range parent {
			parent[i] = item.None
			if i > 0 && rng.Intn(2) == 0 {
				parent[i] = item.Item(rng.Intn(i))
			}
		}
		m := &fpgMiner{tax: taxonomy.MustNew(parent), numLarge: n}
		for _, i := range rng.Perm(n) {
			m.itemAt = append(m.itemAt, item.Item(i))
		}
		tr := newFPTree(n, 1)
		for p := rng.Intn(40); p >= 0; p-- {
			var path []item.Item
			for r := 0; r < n; r++ {
				if rng.Intn(3) == 0 {
					path = append(path, item.Item(r))
				}
			}
			tr.add(path, 1+rng.Int63n(5))
		}
		for r := 1; r < n; r++ {
			minCount := []int64{1, 2, 4, 8}[rng.Intn(4)]
			checkCondTree(t, fmt.Sprintf("trial %d rank %d minCount %d", trial, r, minCount), m, tr, item.Item(r), minCount)
		}
	}
}

// TestBaseTreeKeepsFrequentRanks is TestCondTreeKeepsFrequentRanks for a
// task's received base: the top-level tree holds only the ranks frequent in
// the base, with the survivors' counts.
func TestBaseTreeKeepsFrequentRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		m := condMiner(0, 1, 8)
		var b, run []byte
		units := 0
		for u := rng.Intn(30); u >= 0; u-- {
			var path []item.Item
			for r := 0; r < 7; r++ {
				if rng.Intn(3) == 0 {
					path = append(path, item.Item(r))
				}
			}
			run = condUnit(run, uint64(1+rng.Intn(5)), path)
			if units++; u == 0 || rng.Intn(4) == 0 {
				b = condRun(b, 7, uint64(units), run)
				run, units = run[:0], 0
			}
		}
		if _, err := m.applyBases(b); err != nil {
			t.Fatal(err)
		}
		minCount := []int64{1, 2, 4, 8, 16}[rng.Intn(5)]
		checkTallyInsert(t, fmt.Sprintf("trial %d minCount %d", trial, minCount), m.numLarge, decodedBases(m)[7], minCount,
			func(build bool, sc *mineScratch) (*fpTree, []rankCount) { return m.baseTree(7, minCount, build, sc) })
	}
}

// TestMineSpanNamesSlowestRank: each node's mine span carries the slowest
// task's suffix rank and time next to its task and pattern counts, and the
// rank is one that node owns.
func TestMineSpanNamesSlowestRank(t *testing.T) {
	ds := testDataset(t, 1500)
	const nodes = 3
	tr := obs.NewTracer()
	res, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{MinSupport: 0.01, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatalf("fpg mine: %v", err)
	}
	numLarge := int64(len(res.LargeK(1)))
	recs, _ := tr.ExportSince(0)
	seen := map[int32]bool{}
	for _, rec := range recs {
		if rec.Name != "mine" {
			continue
		}
		args := map[string]int64{}
		for _, a := range rec.Args {
			args[a.Key] = a.Val
		}
		for _, k := range []string{"tasks", "patterns", "slowest-rank", "slowest-us"} {
			if _, ok := args[k]; !ok {
				t.Fatalf("node %d mine span has no %s arg: %v", rec.Node, k, rec.Args)
			}
		}
		if r := args["slowest-rank"]; r < 1 || r >= numLarge || r%nodes != int64(rec.Node) {
			t.Errorf("node %d: slowest rank %d is not an owned suffix rank of %d", rec.Node, r, numLarge)
		}
		if us := args["slowest-us"]; us < 0 || us*1000 > rec.Dur {
			t.Errorf("node %d: slowest task %d us in a %d ns span", rec.Node, us, rec.Dur)
		}
		seen[rec.Node] = true
	}
	if len(seen) != nodes {
		t.Fatalf("mine spans from %d nodes, want %d", len(seen), nodes)
	}
}

// BenchmarkMineR30F5 is the bench-shaped FPG run: R30F5 × 0.002 (6.4 k
// transactions), minsup 1 %, 2 nodes on the channel fabric. Unlike
// BenchmarkMine's unit dataset its recursion runs deep, so it sizes a
// change to the conditional-tree recursion without the pipeline bench.
func BenchmarkMineR30F5(b *testing.B) {
	ds, err := gen.Generate(gen.R30F5().Scaled(0.002))
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	parts := partsOf(ds.DB, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(ds.Taxonomy, parts, Config{MinSupport: 0.01, Fabric: driver.FabricChan}); err != nil {
			b.Fatal(err)
		}
	}
}
