package fpg

import (
	"fmt"
	"math/rand"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// testDataset generates a small but structurally faithful dataset.
func testDataset(tb testing.TB, numTxns int) *gen.Dataset {
	tb.Helper()
	p := gen.Params{
		Name:            "unit",
		NumTxns:         numTxns,
		AvgTxnSize:      6,
		AvgPatternSize:  3,
		NumPatterns:     300,
		NumItems:        900,
		Roots:           8,
		Fanout:          4,
		CorrelationMean: 0.25,
		CorruptionMean:  0.6,
		CorruptionSD:    0.1,
		Seed:            7,
	}
	ds, err := gen.Generate(p)
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	return ds
}

// assertSameLarge compares FP-Growth output against the sequential Cumulate
// baseline, level by level, itemset by itemset, count by count.
func assertSameLarge(t *testing.T, want *cumulate.Result, got *Result) {
	t.Helper()
	if len(want.Large) != len(got.Large) {
		t.Fatalf("level count: cumulate found %d levels, fpg %d", len(want.Large), len(got.Large))
	}
	for k := 1; k <= len(want.Large); k++ {
		w, g := want.Large[k-1], got.LargeK(k)
		if len(w) != len(g) {
			t.Fatalf("L_%d size: cumulate %d, fpg %d", k, len(w), len(g))
		}
		for i := range w {
			if !item.Equal(w[i].Items, g[i].Items) {
				t.Fatalf("L_%d[%d]: cumulate %v, fpg %v", k, i, w[i].Items, g[i].Items)
			}
			if w[i].Count != g[i].Count {
				t.Fatalf("L_%d[%d] %v count: cumulate %d, fpg %d",
					k, i, w[i].Items, w[i].Count, g[i].Count)
			}
		}
	}
}

// partsOf clones the round-robin partitioning used by the experiments.
func partsOf(db *txn.DB, n int) []txn.Scanner {
	parts := txn.Partition(db, n)
	out := make([]txn.Scanner, n)
	for i, p := range parts {
		out[i] = p
	}
	return out
}

// TestFpgMatchesCumulateSweep is the engine's bit-identity contract: at
// every minimum support — down into the low-minsup regime where Apriori's
// candidate sets explode — and at every node count, worker count and fabric,
// the FP-Growth result must equal sequential Cumulate's exactly.
func TestFpgMatchesCumulateSweep(t *testing.T) {
	ds := testDataset(t, 3000)
	minSups := []float64{0.05, 0.02, 0.01, 0.005}
	for _, minSup := range minSups {
		want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
		if err != nil {
			t.Fatalf("cumulate: %v", err)
		}
		if minSup <= 0.01 && len(want.Large) < 3 {
			t.Fatalf("weak test data: only %d large levels at minsup %g", len(want.Large), minSup)
		}
		for _, nodes := range []int{1, 3} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("minsup%g/%dnodes/%dworkers", minSup, nodes, workers), func(t *testing.T) {
					got, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{
						MinSupport: minSup,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("fpg mine: %v", err)
					}
					assertSameLarge(t, want, got)
				})
			}
		}
	}
}

// TestFpgTCPFabricMatches runs the same identity over the loopback TCP
// fabric, where message framing and delivery interleavings differ.
func TestFpgTCPFabricMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fabric round in short mode")
	}
	ds := testDataset(t, 1500)
	for _, minSup := range []float64{0.02, 0.005} {
		want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
		if err != nil {
			t.Fatalf("cumulate: %v", err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("minsup%g/%dworkers", minSup, workers), func(t *testing.T) {
				got, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{
					MinSupport: minSup,
					Workers:    workers,
					Fabric:     driver.FabricTCP,
				})
				if err != nil {
					t.Fatalf("fpg mine over TCP: %v", err)
				}
				assertSameLarge(t, want, got)
			})
		}
	}
}

// TestFpgMaxK bounds pattern length like the candidate engines do.
func TestFpgMaxK(t *testing.T) {
	ds := testDataset(t, 1500)
	for _, maxK := range []int{1, 2, 3} {
		want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.01, MaxK: maxK})
		if err != nil {
			t.Fatalf("cumulate: %v", err)
		}
		got, err := Mine(ds.Taxonomy, partsOf(ds.DB, 3), Config{
			MinSupport: 0.01,
			MaxK:       maxK,
			Workers:    2,
		})
		if err != nil {
			t.Fatalf("fpg mine: %v", err)
		}
		if len(got.Large) > maxK {
			t.Fatalf("MaxK %d: fpg recorded %d levels", maxK, len(got.Large))
		}
		assertSameLarge(t, want, got)
	}
}

// TestFpgRejectsBadConfig mirrors the family contract of core.Mine.
func TestFpgRejectsBadConfig(t *testing.T) {
	tax := taxonomy.MustBalanced(10, 2, 3)
	db := txn.NewDB([]txn.Transaction{{TID: 1, Items: []item.Item{5}}})
	if _, err := Mine(tax, nil, Config{MinSupport: 0.1}); err == nil {
		t.Error("expected error for zero partitions")
	}
	if _, err := Mine(tax, []txn.Scanner{db}, Config{MinSupport: 0}); err == nil {
		t.Error("expected error for zero minimum support")
	}
}

// TestFpgCondBaseAccounting asserts the cond-base exchange is visible in the
// per-kind byte accounting: a multi-node run must ship cond-base bytes, and
// the pass-2 data plane must equal that kind's traffic exactly.
func TestFpgCondBaseAccounting(t *testing.T) {
	ds := testDataset(t, 2000)
	got, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{MinSupport: 0.01, Workers: 2})
	if err != nil {
		t.Fatalf("fpg mine: %v", err)
	}
	p2 := got.Stats.Pass(2)
	if p2 == nil {
		t.Fatal("missing pass-2 stats")
	}
	var condBytes, dataBytes int64
	for _, nd := range p2.Nodes {
		for _, k := range nd.ByKind {
			switch k.Name {
			case "cond-base":
				condBytes += k.BytesSent
			case "data":
				dataBytes += k.BytesSent
			}
		}
		if nd.DataBytesSent == 0 && nd.ItemsSent > 0 {
			t.Errorf("node %d shipped %d items but reports 0 data bytes", nd.Node, nd.ItemsSent)
		}
	}
	if condBytes == 0 {
		t.Fatal("4-node run shipped no cond-base bytes")
	}
	if dataBytes != 0 {
		t.Fatalf("fpg should not use the KData plane, saw %d bytes", dataBytes)
	}
}

// forestProbe is an FPG miner that, at the start of pass 2, builds its
// forest once more and hands it to check before the real pass runs.
type forestProbe struct {
	*fpgMiner
	check func(m *fpgMiner, forest []*fpTree)
}

func (p forestProbe) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	forest, err := p.buildForest(n, nil)
	if err != nil {
		return driver.PassOutcome{}, err
	}
	p.check(p.fpgMiner, forest)
	return p.fpgMiner.CountPass(n, k, st)
}

// TestForestWithinPass1Bound: on random forests and datasets, every node's
// forest has at most as many tree nodes as the pass-1 bound its arena is
// sized from, and with one worker the arena is allocated once — its capacity
// is still the bound's after the build.
func TestForestWithinPass1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 8; trial++ {
		p := gen.Params{
			Name:            "bound",
			NumTxns:         200 + rng.Intn(1200),
			AvgTxnSize:      3 + 5*rng.Float64(),
			AvgPatternSize:  2 + 2*rng.Float64(),
			NumPatterns:     50 + rng.Intn(250),
			NumItems:        100 + rng.Intn(600),
			Roots:           2 + rng.Intn(9),
			Fanout:          2 + rng.Intn(4),
			CorrelationMean: 0.25,
			CorruptionMean:  0.5,
			CorruptionSD:    0.1,
			Seed:            rng.Int63(),
		}
		ds, err := gen.Generate(p)
		if err != nil {
			t.Fatalf("generate %+v: %v", p, err)
		}
		parts := partsOf(ds.DB, 1+rng.Intn(3))
		minSup := []float64{0.005, 0.01, 0.02, 0.05}[rng.Intn(4)]
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("trial%d/%dnodes/%dworkers", trial, len(parts), workers)
			check := func(m *fpgMiner, forest []*fpTree) {
				var nodes int64
				for _, tr := range forest {
					nodes += int64(len(tr.nodes) - 1)
				}
				if nodes > m.forestNodes {
					t.Errorf("%s: node %d forest has %d nodes, bound %d", name, m.nodeID, nodes, m.forestNodes)
				}
				if len(forest) == 1 && int64(cap(forest[0].nodes)) != m.forestNodes+1 {
					t.Errorf("%s: node %d arena capacity %d after the build, want the bound %d", name, m.nodeID, cap(forest[0].nodes), m.forestNodes+1)
				}
			}
			cfg := Config{Algorithm: Engine, MinSupport: minSup, Workers: workers}
			_, _, err := driver.Run(runSpec(cfg), len(parts), func(i int) (driver.Miner, error) {
				return forestProbe{newFpgMiner(ds.Taxonomy, parts[i], cfg), check}, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// BenchmarkMine records what a whole FPG run allocates: 2 nodes on the
// channel fabric over testDataset(4000), minsup 1 %. Run with -benchmem;
// B/op is the figure the pass-2 arena and cond-base changes move.
func BenchmarkMine(b *testing.B) {
	ds := testDataset(b, 4000)
	parts := partsOf(ds.DB, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(ds.Taxonomy, parts, Config{MinSupport: 0.01, Fabric: driver.FabricChan}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTree is the allocs/op regression fence for the FP-tree build
// hot path: with the arena sized from the pass-1 bound, as buildForest sizes
// it, inserting transactions allocates nothing beyond the tree itself.
func BenchmarkBuildTree(b *testing.B) {
	ds := testDataset(b, 4000)
	// Fix the frequency order the way pass 1 would.
	counts := make([]int64, ds.Taxonomy.NumItems())
	var ext []item.Item
	_ = ds.DB.Scan(func(t txn.Transaction) error {
		ext = ds.Taxonomy.ExtendTransaction(ext[:0], t.Items)
		for _, x := range ext {
			counts[x]++
		}
		return nil
	})
	minCount := cumulate.MinCount(0.01, ds.DB.Len())
	rank := make([]int32, len(counts))
	var order []item.Item
	for i := range rank {
		rank[i] = -1
		if counts[i] >= minCount {
			order = append(order, item.Item(i))
		}
	}
	for r, it := range order {
		rank[it] = int32(r)
	}
	// Pre-extend every transaction to its sorted rank list, so the benchmark
	// isolates tree insertion.
	var txns [][]item.Item
	bound := 1 // the root
	_ = ds.DB.Scan(func(t txn.Transaction) error {
		ext = ds.Taxonomy.ExtendTransaction(ext[:0], t.Items)
		var rs []item.Item
		for _, x := range ext {
			if r := rank[x]; r >= 0 {
				rs = append(rs, item.Item(r))
			}
		}
		item.Sort(rs)
		txns = append(txns, rs)
		bound += len(rs)
		return nil
	})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := newFPTree(len(order), bound)
		for _, rs := range txns {
			t.add(rs, 1)
		}
	}
}
