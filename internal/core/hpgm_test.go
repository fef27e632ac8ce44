package core

import (
	"fmt"
	"testing"

	"pgarm/internal/cluster"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// refHPGM is HPGM's count phase without the containment kernel: every
// k-subset of every extended transaction is enumerated and hashed to its
// owner. A scan worker probes each subset it owns with Table.Lookup into its
// own vector; the rest are encoded and routed, and the receiver probes each
// unit. The engine counts the same probes, increments and traffic with its
// own share going through the containment kernel.
type refHPGM struct{ hpgmEngine }

func (e *refHPGM) CountPass(n *driver.Node, k int, st *metrics.NodeStats) (driver.PassOutcome, error) {
	nNodes, self := n.NumNodes(), n.ID()
	table := itemset.NewTable(e.owned)
	counts := driver.WorkerVectors(1+n.Workers(), e.owned.Len()) // the receiver's, then each worker's
	probe := func(items []item.Item, counts []int64, st *metrics.NodeStats) {
		st.Probes++
		if id := table.Lookup(items); id >= 0 {
			counts[id]++
			st.Increments++
		}
	}
	cp := n.NewExchange(driver.KData, driver.ItemsApplier(func(items []item.Item) { probe(items, counts[0], st) }))
	err := driver.CountPhase(n.Local(), n.Workers(), n.ShardObs("count"), st, taxonomy.SetsClosure(e.tax, e.curCands.Items), cp,
		func(w *driver.Worker, _ txn.Transaction) error {
			var walk itemset.Subsets
			for ok := walk.Reset(w.Ext, k); ok; ok = walk.Next() {
				sub := walk.Items()
				dest := int(itemset.Hash(sub) % uint64(nNodes))
				if dest == self {
					probe(sub, counts[1+w.ID], &w.Stats)
					continue
				}
				w.Stats.ItemsSent += int64(len(sub))
				if err := w.Bat.AddItems(dest, sub); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return driver.PassOutcome{}, err
	}
	return driver.PassOutcome{Own: largeOf(e.owned, driver.MergeWorkerVectors(counts), n.MinCount()), Fragments: 1}, nil
}

// mineRefHPGM is Mine with every node's HPGM engine replaced by refHPGM.
func mineRefHPGM(tax *taxonomy.Taxonomy, parts []txn.Scanner, cfg Config) (*Result, error) {
	cache := newCandCache(tax)
	return driver.Run(cfg, tax, parts, func(int) (driver.Miner, error) {
		return &refHPGM{hpgmEngine{itemsetMiner: itemsetMiner{tax: tax, cfg: cfg, cands: cache}}}, nil
	})
}

// TestHPGMMatchesEnumerateAndShip: at every node count, worker count and
// fabric, HPGM finds the large itemsets of the enumerate-and-ship reference
// with the same per-node probes, increments, items sent and data bytes
// received in every pass.
func TestHPGMMatchesEnumerateAndShip(t *testing.T) {
	ds := testDataset(t, 500)
	fabrics := map[string]driver.FabricKind{"chan": driver.FabricChan, "tcp": driver.FabricTCP}
	for _, fname := range []string{"chan", "tcp"} {
		fabric := fabrics[fname]
		for _, nodes := range []int{1, 2, 4} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/n%d/w%d", fname, nodes, workers), func(t *testing.T) {
					cfg := Config{Algorithm: HPGM, MinSupport: 0.02, MaxK: 3, Workers: workers, Fabric: fabric}
					want, err := mineRefHPGM(ds.Taxonomy, partsOf(ds.DB, nodes), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertSameLevels(t, want.Levels, got.Levels)
					if len(got.Stats.Passes) != len(want.Stats.Passes) {
						t.Fatalf("%d passes, reference %d", len(got.Stats.Passes), len(want.Stats.Passes))
					}
					for i, wp := range want.Stats.Passes {
						for j, w := range wp.Nodes {
							g := got.Stats.Passes[i].Nodes[j]
							wc := [4]int64{w.Probes, w.Increments, w.ItemsSent, w.DataBytesReceived}
							gc := [4]int64{g.Probes, g.Increments, g.ItemsSent, g.DataBytesReceived}
							if gc != wc {
								t.Errorf("pass %d node %d: probes, increments, items sent, data bytes received %v, reference %v",
									wp.Pass, j, gc, wc)
							}
						}
					}
					if len(got.Stats.Passes) < 3 || got.Stats.Passes[2].Nodes[0].Probes == 0 {
						t.Fatal("pass 3 probed nothing: the dataset does not exercise the count phase")
					}
				})
			}
		}
	}
}

// assertSameLevels compares two results level by level, count by count.
func assertSameLevels(t *testing.T, want, got itemset.Levels) {
	t.Helper()
	if len(got.Large) != len(want.Large) {
		t.Fatalf("%d levels, reference %d", len(got.Large), len(want.Large))
	}
	for k := 1; k <= len(want.Large); k++ {
		w, g := want.LargeK(k), got.LargeK(k)
		if len(g) != len(w) {
			t.Fatalf("L_%d: %d itemsets, reference %d", k, len(g), len(w))
		}
		for i := range w {
			if !item.Equal(g[i].Items, w[i].Items) || g[i].Count != w[i].Count {
				t.Fatalf("L_%d[%d]: %v x%d, reference %v x%d", k, i, g[i].Items, g[i].Count, w[i].Items, w[i].Count)
			}
		}
	}
}

// TestTCPMinesKeepBatchFreeList: a TCP mine returns every batch it takes from
// the free list, control payloads included, so with the list full beforehand
// it is full again after each of two back-to-back mines.
func TestTCPMinesKeepBatchFreeList(t *testing.T) {
	ds := testDataset(t, 600)
	held := make([][]byte, 2048) // more than the list holds
	for i := range held {
		held[i] = cluster.NewBatch()
	}
	for _, b := range held {
		cluster.Release(b)
	}
	full := cluster.FreeBatches()
	for run := 1; run <= 2; run++ {
		_, err := Mine(ds.Taxonomy, partsOf(ds.DB, 2), Config{Algorithm: HPGM, MinSupport: 0.02, MaxK: 3, Fabric: driver.FabricTCP})
		if err != nil {
			t.Fatal(err)
		}
		if got := cluster.FreeBatches(); got != full {
			t.Fatalf("after mine %d the free list holds %d batches, %d before", run, got, full)
		}
	}
}
