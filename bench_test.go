// Paper-level benchmarks: one testing.B target per evaluation table/figure
// of Shintani & Kitsuregawa (SIGMOD 1998), plus ablations for the design
// choices DESIGN.md calls out. Each benchmark runs a scaled-down version of
// the paper's workload and reports the experiment's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` regenerates the evaluation
// in miniature; `pgarm-bench` produces the full tables.
package pgarm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pgarm/internal/core"
	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// benchScale keeps a single bench iteration around a second on a small box
// while preserving the paper datasets' frequency structure.
const benchScale = 0.002 // 6,400 of 3.2M transactions

var (
	benchOnce sync.Once
	benchData *gen.Dataset
)

func benchDataset(b *testing.B) *gen.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := gen.Generate(gen.R30F5().Scaled(benchScale))
		if err != nil {
			panic(err)
		}
		benchData = ds
	})
	return benchData
}

func benchParts(ds *gen.Dataset, n int) []txn.Scanner {
	parts := txn.Partition(ds.DB, n)
	out := make([]txn.Scanner, n)
	for i := range parts {
		out[i] = parts[i]
	}
	return out
}

func mustMine(b *testing.B, ds *gen.Dataset, cfg engines.Spec, nodes int) *engines.Result {
	b.Helper()
	res, err := engines.Run(ds.Taxonomy, benchParts(ds, nodes), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable6 measures the communication volume HPGM and H-HPGM incur
// at pass 2 (Table 6 of the paper: H-HPGM receives ~26-29x less).
func BenchmarkTable6(b *testing.B) {
	ds := benchDataset(b)
	for _, alg := range []core.Algorithm{core.HPGM, core.HHPGM} {
		for _, nodes := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/%dnodes", alg, nodes), func(b *testing.B) {
				var recv float64
				for i := 0; i < b.N; i++ {
					res := mustMine(b, ds, engines.Spec{Algorithm: alg, MinSupport: 0.01, MaxK: 2}, nodes)
					recv = res.Stats.Pass(2).AvgBytesReceived()
				}
				b.ReportMetric(recv/1024, "KB-recv/node")
			})
		}
	}
}

// BenchmarkFig13 measures pass-2 modeled execution time for HPGM vs H-HPGM
// across the support sweep (Figure 13).
func BenchmarkFig13(b *testing.B) {
	ds := benchDataset(b)
	cost := metrics.DefaultCostModel()
	for _, alg := range []core.Algorithm{core.HPGM, core.HHPGM} {
		for _, minsup := range []float64{0.02, 0.01, 0.005} {
			b.Run(fmt.Sprintf("%s/minsup%.3g", alg, minsup), func(b *testing.B) {
				var modeled float64
				for i := 0; i < b.N; i++ {
					res := mustMine(b, ds, engines.Spec{Algorithm: alg, MinSupport: minsup, MaxK: 2}, 16)
					modeled = cost.PassTime(*res.Stats.Pass(2)).Seconds()
				}
				b.ReportMetric(modeled*1000, "modeled-ms")
			})
		}
	}
}

// benchBudget gives the duplicating variants the Figure 14/15/16 memory
// regime at bench scale: candidates exceed one node's share but free space
// remains for duplication.
const benchBudget = 12 << 20

// BenchmarkFig14 measures pass-2 modeled time of all algorithms under the
// per-node memory budget (Figure 14: NPGM collapses, FGD wins).
func BenchmarkFig14(b *testing.B) {
	ds := benchDataset(b)
	cost := metrics.DefaultCostModel()
	for _, alg := range []core.Algorithm{core.NPGM, core.HHPGM, core.HHPGMTGD, core.HHPGMPGD, core.HHPGMFGD} {
		b.Run(string(alg), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				res := mustMine(b, ds, engines.Spec{
					Algorithm: alg, MinSupport: 0.005, MaxK: 2, MemoryBudget: benchBudget,
				}, 16)
				modeled = cost.PassTime(*res.Stats.Pass(2)).Seconds()
			}
			b.ReportMetric(modeled*1000, "modeled-ms")
		})
	}
}

// BenchmarkFig15 measures the per-node probe-load imbalance (Figure 15:
// max/mean flattens from H-HPGM to FGD).
func BenchmarkFig15(b *testing.B) {
	ds := benchDataset(b)
	for _, alg := range []core.Algorithm{core.HHPGM, core.HHPGMTGD, core.HHPGMPGD, core.HHPGMFGD} {
		b.Run(string(alg), func(b *testing.B) {
			var maxOverMean float64
			for i := 0; i < b.N; i++ {
				res := mustMine(b, ds, engines.Spec{
					Algorithm: alg, MinSupport: 0.005, MaxK: 2, MemoryBudget: benchBudget,
				}, 16)
				maxOverMean = res.Stats.Pass(2).ProbeSkew().MaxOverMean
			}
			b.ReportMetric(maxOverMean, "max/mean-probes")
		})
	}
}

// BenchmarkFig16 measures modeled speedup from 4 to 16 nodes (Figure 16:
// FGD closest to linear).
func BenchmarkFig16(b *testing.B) {
	ds := benchDataset(b)
	cost := metrics.DefaultCostModel()
	for _, alg := range []core.Algorithm{core.HHPGM, core.HHPGMFGD} {
		b.Run(string(alg), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := engines.Spec{Algorithm: alg, MinSupport: 0.005, MaxK: 2, MemoryBudget: benchBudget}
				t4 := cost.PassTime(*mustMine(b, ds, cfg, 4).Stats.Pass(2))
				t16 := cost.PassTime(*mustMine(b, ds, cfg, 16).Stats.Pass(2))
				speedup = 4 * t4.Seconds() / t16.Seconds()
			}
			b.ReportMetric(speedup, "speedup-at-16")
		})
	}
}

// BenchmarkAblationPartitioning isolates the Table 6 delta: identical
// workload, itemset-hash vs root-hash placement, items shipped.
func BenchmarkAblationPartitioning(b *testing.B) {
	ds := benchDataset(b)
	for _, alg := range []core.Algorithm{core.HPGM, core.HHPGM} {
		b.Run(string(alg), func(b *testing.B) {
			var items float64
			for i := 0; i < b.N; i++ {
				res := mustMine(b, ds, engines.Spec{Algorithm: alg, MinSupport: 0.01, MaxK: 2}, 8)
				items = float64(res.Stats.Pass(2).TotalItemsSent())
			}
			b.ReportMetric(items, "items-shipped")
		})
	}
}

// BenchmarkAblationDuplication sweeps the memory budget to show how much
// free space FGD needs before the load flattens.
func BenchmarkAblationDuplication(b *testing.B) {
	ds := benchDataset(b)
	for _, budget := range []int64{benchBudget / 4, benchBudget, benchBudget * 4} {
		b.Run(fmt.Sprintf("budget%dMB", budget>>20), func(b *testing.B) {
			var maxOverMean float64
			for i := 0; i < b.N; i++ {
				res := mustMine(b, ds, engines.Spec{
					Algorithm: core.HHPGMFGD, MinSupport: 0.005, MaxK: 2, MemoryBudget: budget,
				}, 16)
				maxOverMean = res.Stats.Pass(2).ProbeSkew().MaxOverMean
			}
			b.ReportMetric(maxOverMean, "max/mean-probes")
		})
	}
}

// BenchmarkAblationFabric compares the in-process channel fabric with the
// loopback TCP fabric carrying identical payloads.
func BenchmarkAblationFabric(b *testing.B) {
	ds := benchDataset(b)
	for name, kind := range map[string]driver.FabricKind{"chan": driver.FabricChan, "tcp": driver.FabricTCP} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustMine(b, ds, engines.Spec{
					Algorithm: core.HHPGM, MinSupport: 0.01, MaxK: 2, Fabric: kind,
				}, 8)
			}
		})
	}
}

// countFixture is one counting pass's inputs at bench scale: C_k at 1%
// minimum support (the all-pairs-dense C_2, or the sparse C_3 generated from
// L_2), its keep set, L_1, and every transaction already extended and
// member-filtered, so the arms below time counting alone.
type countFixture struct {
	tax    *taxonomy.Taxonomy
	txns   [][]item.Item
	cands  itemset.Sets
	member []bool
	l1     []itemset.Counted
	exts   [][]item.Item
}

func newCountFixture(b *testing.B, k int) countFixture {
	b.Helper()
	ds := benchDataset(b)
	res, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.01, MaxK: k - 1})
	if err != nil {
		b.Fatal(err)
	}
	fx := countFixture{tax: ds.Taxonomy, cands: cumulate.GenerateCandidates(ds.Taxonomy, res.LargeK(k-1), k), l1: res.LargeK(1)}
	if fx.cands.Len() == 0 {
		b.Fatalf("no %d-candidates at bench scale", k)
	}
	fx.member = cumulate.Keep(ds.Taxonomy, fx.cands)
	closure := taxonomy.KeepClosure(ds.Taxonomy, fx.member)
	set := make([]uint64, closure.Words())
	ds.DB.Scan(func(t txn.Transaction) error {
		fx.txns = append(fx.txns, t.Items)
		fx.exts = append(fx.exts, closure.Extend(nil, t.Items, set))
		return nil
	})
	return fx
}

// BenchmarkAblationIndex compares the two ways of counting one pass over the
// same candidates: enumerate every k-subset and look each up in a Table
// (what every counting site did before the prefix layout, and what an HPGM
// receiver still does with the units it is shipped) against the Index's
// containment kernel — the prefix-pruned walk at k = 3, the pair table of
// the dense C_2 at k = 2. One op is one full scan. This arm is what retired
// itemset.HashTree.
func BenchmarkAblationIndex(b *testing.B) {
	for _, k := range []int{2, 3} {
		fx := newCountFixture(b, k)
		table := itemset.NewTable(fx.cands)
		index := itemset.NewIndex(fx.cands)
		counts := make([]int64, fx.cands.Len())
		b.Run(fmt.Sprintf("k%d/probe", k), func(b *testing.B) {
			var walk itemset.Subsets
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, ext := range fx.exts {
					for ok := walk.Reset(ext, k); ok; ok = walk.Next() {
						if id := table.Lookup(walk.Items()); id >= 0 {
							counts[id]++
						}
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k%d/prefix", k), func(b *testing.B) {
			var stamps itemset.Stamps
			for _, ext := range fx.exts { // grow the stamps before the timer; counts is never read
				index.CountContained(ext, counts, &stamps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ext := range fx.exts {
					index.CountContained(ext, counts, &stamps)
				}
			}
		})
	}
}

// BenchmarkCountContained measures the containment kernel per transaction
// on its three regimes — the dense C_2, where nearly every pair is a
// candidate and the pair table counts; the sparse C_3, where most triples
// are not and the prefix layout counts; and the half of that C_2 which
// HPGM's node 0 owns at 2 nodes (itemset.Hash(c)%2 == 0), below half full
// and so counted through the prefix layout, as HPGM's pass 2 counts its own
// share — and must report 0 allocs/op in all three (CI fails otherwise).
func BenchmarkCountContained(b *testing.B) {
	k2, k3 := newCountFixture(b, 2), newCountFixture(b, 3)
	var ownedIDs []int32
	for i := range k2.cands.Len() {
		if itemset.Hash(k2.cands.At(i))%2 == 0 {
			ownedIDs = append(ownedIDs, int32(i))
		}
	}
	for _, c := range []struct {
		name  string
		cands itemset.Sets
		exts  [][]item.Item
	}{{"k2-dense", k2.cands, k2.exts}, {"k3-sparse", k3.cands, k3.exts}, {"k2-owned", k2.cands.Subset(ownedIDs), k2.exts}} {
		index := itemset.NewIndex(c.cands)
		counts := make([]int64, c.cands.Len())
		exts := c.exts
		b.Run(c.name, func(b *testing.B) {
			var stamps itemset.Stamps
			for _, ext := range exts { // grow the stamps before the timer; counts is never read
				index.CountContained(ext, counts, &stamps)
			}
			var hits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits += index.CountContained(exts[i%len(exts)], counts, &stamps)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
			b.ReportMetric(float64(index.Bytes()), "index-B")
		})
	}
}

// BenchmarkExtend measures the engines' ancestor-closure extension per
// transaction on its three regimes: the keep-set closures of the k = 2 and
// k = 3 passes (member items in id order) and FP-Growth's rank closure (L_1
// ranked by count descending, id ascending, emitting ranks). It must report
// 0 allocs/op in every regime (CI fails otherwise).
func BenchmarkExtend(b *testing.B) {
	k2, k3 := newCountFixture(b, 2), newCountFixture(b, 3)
	tax := k2.tax
	byCount := slices.Clone(k2.l1)
	slices.SortStableFunc(byCount, func(x, y itemset.Counted) int { return cmp.Compare(y.Count, x.Count) })
	rank := make([]int32, tax.NumItems())
	for i := range rank {
		rank[i] = -1
	}
	ranks := make([]item.Item, len(byCount))
	for r, c := range byCount {
		rank[c.Items[0]] = int32(r)
		ranks[r] = item.Item(r)
	}
	for _, c := range []struct {
		name    string
		closure *taxonomy.Closure
	}{
		{"k2", taxonomy.KeepClosure(tax, k2.member)},
		{"k3", taxonomy.KeepClosure(tax, k3.member)},
		{"fpg-ranks", taxonomy.NewClosure(tax, rank, ranks)},
	} {
		b.Run(c.name, func(b *testing.B) {
			set := make([]uint64, c.closure.Words())
			var dst []item.Item
			for _, t := range k2.txns { // grow dst before the timer
				dst = c.closure.Extend(dst[:0], t, set)
			}
			var out int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = c.closure.Extend(dst[:0], k2.txns[i%len(k2.txns)], set)
				out += int64(len(dst))
			}
			b.ReportMetric(float64(out)/float64(b.N), "items/op")
		})
	}
}

// BenchmarkProbe isolates one candidate lookup: the packed-string map
// baseline allocates a key per lookup; the open-addressed Table probes in
// place, on a hit (flat) and on a miss (miss), and must report 0 allocs/op
// in both.
func BenchmarkProbe(b *testing.B) {
	ds := benchDataset(b)
	res, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.01, MaxK: 2})
	if err != nil {
		b.Fatal(err)
	}
	l2 := itemset.LevelSets(res.LargeK(2))
	cands := l2.Slices()
	if len(cands) == 0 {
		b.Fatal("no 2-itemsets at bench scale")
	}
	table := itemset.NewTable(l2)
	byKey := make(map[string]int32, len(cands))
	for i, c := range cands {
		byKey[itemset.Key(c)] = int32(i)
	}

	b.Run("map-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cands[i%len(cands)]
			if _, ok := byKey[itemset.Key(c)]; !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if table.Lookup(cands[i%len(cands)]) < 0 {
				b.Fatal("miss")
			}
		}
	})
	// Absent pairs over the same items, as most of HPGM's probes are.
	var absent [][]item.Item
	for _, c := range cands {
		if s := []item.Item{c[0], c[1] + 1}; table.Lookup(s) < 0 {
			absent = append(absent, s)
		}
	}
	if len(absent) == 0 {
		b.Fatal("no absent pairs at bench scale")
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if table.Lookup(absent[i%len(absent)]) >= 0 {
				b.Fatal("hit")
			}
		}
	})
}

// BenchmarkUnits measures HPGM's receiver: one op counts one 4 KB batch of
// the k = 3 pass's units (every k-subset of the extended transactions,
// encoded as the sender encodes them) against a Table over the candidates.
// It must report 0 allocs/op (CI fails otherwise).
func BenchmarkUnits(b *testing.B) {
	const k, batchBytes = 3, 4 << 10
	fx := newCountFixture(b, k)
	table := itemset.NewTable(fx.cands)
	var batches [][]byte
	batch := make([]byte, 0, 2*batchBytes)
	var walk itemset.Subsets
	for _, ext := range fx.exts {
		for ok := walk.Reset(ext, k); ok; ok = walk.Next() {
			if batch = wire.AppendItems(batch, walk.Items()); len(batch) >= batchBytes {
				batches = append(batches, batch)
				batch = make([]byte, 0, 2*batchBytes)
			}
		}
	}
	if len(batches) == 0 {
		b.Fatal("no full batch of units at bench scale")
	}
	counts := make([]int64, fx.cands.Len())
	var unit []item.Item
	table.CountUnits(batches[0], counts, &unit) // grow the scratch before the timer
	var units int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, _, err := table.CountUnits(batches[i%len(batches)], counts, &unit)
		if err != nil {
			b.Fatal(err)
		}
		units += n
	}
	b.ReportMetric(float64(units)/float64(b.N), "units/op")
}

// BenchmarkWorkers measures wall-clock for the full mine as the per-node scan
// worker pool grows (DESIGN.md §5 "workers per node" ablation). Total
// parallelism is nodes x workers; the result is bit-identical at any setting.
func BenchmarkWorkers(b *testing.B) {
	ds := benchDataset(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustMine(b, ds, engines.Spec{
					Algorithm: core.HHPGM, MinSupport: 0.01, MaxK: 2, Workers: workers,
				}, 4)
			}
		})
	}
}

// benchLevels mines the bench dataset sequentially and returns L_1 and L_2
// as recorded — the real generation inputs for passes 2 and 3.
func benchLevels(b *testing.B) (l1, l2 []itemset.Counted, tax *taxonomy.Taxonomy) {
	b.Helper()
	ds := benchDataset(b)
	res, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.01, MaxK: 2})
	if err != nil {
		b.Fatal(err)
	}
	l1, l2 = res.LargeK(1), res.LargeK(2)
	if len(l1) == 0 || len(l2) == 0 {
		b.Fatal("bench dataset produced empty levels")
	}
	return l1, l2, ds.Taxonomy
}

// BenchmarkGenerate measures the candidate-generation pass boundary: C_2
// (pairs less item/ancestor pairs) and C_3 (join + prune), each written
// into one arena from the level the barrier recorded. allocs/op is the
// headline: it must not scale with the survivor count (CI fails k2 above 4
// and k3 above 40).
func BenchmarkGenerate(b *testing.B) {
	l1, l2, tax := benchLevels(b)
	b.Run("k2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cumulate.GenerateCandidates(tax, l1, 2)
		}
	})
	b.Run("k3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cumulate.GenerateCandidates(tax, l2, 3)
		}
	})
}

// BenchmarkBuildIndex measures the candidate index build over pass-2
// candidates: the pair table when C_2 is dense, otherwise the prefix
// layout.
func BenchmarkBuildIndex(b *testing.B) {
	l1, _, tax := benchLevels(b)
	cands := cumulate.GenerateCandidates(tax, l1, 2)
	if cands.Len() == 0 {
		b.Fatal("no candidates")
	}
	b.Run("serial-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			itemset.NewIndex(cands)
		}
	})
}

// BenchmarkSequentialCumulate is the single-node baseline all speedups are
// ultimately against.
func BenchmarkSequentialCumulate(b *testing.B) {
	ds := benchDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.01, MaxK: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
