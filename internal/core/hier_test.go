package core

import (
	"fmt"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/metrics"
)

// TestHierRoutingMatchesAcrossWorkersAndFabrics runs the H-HPGM family under
// a budget that leaves candidates partitioned, so item groups are routed:
// each scan worker counts the group it selects for its own node in place,
// and the receiver counts the groups peers send. At 1, 2 and 4 nodes, with 1
// and 3 scan workers, over the channel and TCP fabrics, L_k equals
// Cumulate's, and every node's probes, increments, items sent, items
// received and data bytes received in every pass are the same whatever the
// worker count and the fabric.
func TestHierRoutingMatchesAcrossWorkersAndFabrics(t *testing.T) {
	ds := testDataset(t, 1000)
	const minSup, maxK = 0.02, 3
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup, MaxK: maxK})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	type counters [5]int64
	for _, alg := range []Algorithm{HHPGM, HHPGMTGD, HHPGMPGD, HHPGMFGD} {
		for _, nodes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/n%d", alg, nodes), func(t *testing.T) {
				var ref [][]counters // per pass, per node: the first run's
				var refName string
				for _, fabric := range []driver.FabricKind{driver.FabricChan, driver.FabricTCP} {
					for _, workers := range []int{1, 3} {
						name := fmt.Sprintf("fabric %d, %d workers", fabric, workers)
						got, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{
							Algorithm: alg, MinSupport: minSup, MaxK: maxK,
							MemoryBudget: 16 << 10, Workers: workers, Fabric: fabric,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						assertSameLarge(t, want, got)
						var runs [][]counters
						partitioned, sent := false, int64(0)
						for _, ps := range got.Stats.Passes {
							partitioned = partitioned || ps.Pass >= 2 && ps.Duplicated < ps.Candidates
							row := make([]counters, len(ps.Nodes))
							for j, ns := range ps.Nodes {
								row[j] = counters{ns.Probes, ns.Increments, ns.ItemsSent, ns.ItemsReceived, ns.DataBytesReceived}
								sent += ns.ItemsSent
							}
							runs = append(runs, row)
						}
						if !partitioned || nodes > 1 && sent == 0 {
							t.Fatalf("%s: no pass left candidates partitioned and routed (items sent %d)", name, sent)
						}
						if ref == nil {
							ref, refName = runs, name
							continue
						}
						if len(runs) != len(ref) {
							t.Fatalf("%s: %d passes, %s %d", name, len(runs), refName, len(ref))
						}
						for i := range ref {
							for j := range ref[i] {
								if runs[i][j] != ref[i][j] {
									t.Errorf("%s: pass %d node %d probes, increments, items sent, items received, data bytes received %v; %s %v",
										name, got.Stats.Passes[i].Pass, j, runs[i][j], refName, ref[i][j])
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestReplicatedPassesMatchNPGM: with no budget the duplicating variants
// replicate every candidate, which is NPGM's pass, and all four count it
// through the one replicated path. At 1, 2 and 4 nodes, with 1 and 3 scan
// workers, over the channel and TCP fabrics, L_k equals Cumulate's, every
// node's probes, increments and transactions scanned in every pass are the
// same for all four algorithms, and no pass from 2 on moves an item or
// sends a count-support message (KData or KDone).
func TestReplicatedPassesMatchNPGM(t *testing.T) {
	ds := testDataset(t, 600)
	const minSup, maxK = 0.02, 3
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup, MaxK: maxK})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	msgs := func(ns metrics.NodeStats, kind uint8) int64 {
		if int(kind) >= len(ns.ByKind) {
			return 0
		}
		io := ns.ByKind[kind]
		return io.MsgsSent + io.MsgsReceived
	}
	type counters [3]int64
	for _, fabric := range []driver.FabricKind{driver.FabricChan, driver.FabricTCP} {
		for _, nodes := range []int{1, 2, 4} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("fabric%d/n%d/w%d", fabric, nodes, workers), func(t *testing.T) {
					var ref [][]counters // per pass, per node: NPGM's
					for _, alg := range []Algorithm{NPGM, HHPGMTGD, HHPGMPGD, HHPGMFGD} {
						got, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{
							Algorithm: alg, MinSupport: minSup, MaxK: maxK,
							Workers: workers, Fabric: fabric,
						})
						if err != nil {
							t.Fatalf("%s: %v", alg, err)
						}
						assertSameLarge(t, want, got)
						var runs [][]counters
						for _, ps := range got.Stats.Passes {
							row := make([]counters, len(ps.Nodes))
							for j, ns := range ps.Nodes {
								row[j] = counters{ns.Probes, ns.Increments, ns.TxnsScanned}
								if ps.Pass < 2 {
									continue
								}
								if ns.ItemsSent != 0 || ns.ItemsReceived != 0 || msgs(ns, driver.KData) != 0 || msgs(ns, driver.KDone) != 0 {
									t.Errorf("%s pass %d node %d: %d items sent, %d received, %d KData and %d KDone messages; want none",
										alg, ps.Pass, j, ns.ItemsSent, ns.ItemsReceived, msgs(ns, driver.KData), msgs(ns, driver.KDone))
								}
							}
							runs = append(runs, row)
						}
						if len(runs) < 3 || runs[2][0][0] == 0 {
							t.Fatalf("%s: pass 3 probed nothing: the dataset does not exercise the count phase", alg)
						}
						if ref == nil {
							ref = runs
							continue
						}
						if len(runs) != len(ref) {
							t.Fatalf("%s: %d passes, NPGM %d", alg, len(runs), len(ref))
						}
						for i := range ref {
							for j := range ref[i] {
								if runs[i][j] != ref[i][j] {
									t.Errorf("%s pass %d node %d: probes, increments, txns scanned %v; NPGM %v",
										alg, got.Stats.Passes[i].Pass, j, runs[i][j], ref[i][j])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestReplicatedRunLeavesViewUnbuilt: the transaction replacement view is
// built by the first pass that routes item groups, so a run whose every pass
// replicates all of C_k — NPGM's, and a duplicating variant's with no budget
// — never builds it on any node, while a budgeted run that partitions does.
func TestReplicatedRunLeavesViewUnbuilt(t *testing.T) {
	ds := testDataset(t, 600)
	for _, c := range []struct {
		alg    Algorithm
		budget int64
		built  bool
	}{{NPGM, 0, false}, {HHPGMTGD, 0, false}, {HHPGMFGD, 0, false}, {HHPGMFGD, 16 << 10, true}} {
		cfg := Config{Algorithm: c.alg, MinSupport: 0.02, MaxK: 3, MemoryBudget: c.budget}
		cache := newCandCache(ds.Taxonomy)
		engines := make([]*hierEngine, 2)
		res, err := driver.Run(cfg, ds.Taxonomy, partsOf(ds.DB, len(engines)), func(i int) (driver.Miner, error) {
			m, err := newMiner(ds.Taxonomy, cfg, cache)
			if err != nil {
				return nil, err
			}
			engines[i] = m.(*hierEngine)
			return m, nil
		})
		if err != nil {
			t.Fatalf("%s budget %d: %v", c.alg, c.budget, err)
		}
		if len(res.Stats.Passes) < 3 {
			t.Fatalf("%s budget %d: %d passes; the dataset does not reach pass 3", c.alg, c.budget, len(res.Stats.Passes))
		}
		for i, e := range engines {
			if built := e.replace != nil; built != c.built {
				t.Errorf("%s budget %d node %d: replacement view built %v, want %v", c.alg, c.budget, i, built, c.built)
			}
		}
	}
}
