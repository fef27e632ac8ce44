// Skewdemo: make the paper's load-balancing story visible. A deliberately
// skewed basket stream concentrates support in a handful of hot product
// trees; plain H-HPGM then funnels most of the counting work to the node
// owning those trees, while the TGD/PGD/FGD variants copy the hot candidate
// itemsets everywhere and flatten the per-node probe load (the Figure 15
// effect, at example scale).
//
//	go run ./examples/skewdemo
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pgarm/internal/core"
	"pgarm/internal/engines"
	"pgarm/internal/experiment"
	"pgarm/internal/item"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// variants are the H-HPGM family in the order the demo prints them.
var variants = []core.Algorithm{core.HHPGM, core.HHPGMTGD, core.HHPGMPGD, core.HHPGMFGD}

func main() {
	passes, err := pass2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-node probe counts at pass 2 (8 nodes, hot-tree skewed data):")
	for v, ps := range passes {
		labels := make([]string, len(ps.Nodes))
		vals := make([]float64, len(ps.Nodes))
		for i, ns := range ps.Nodes {
			labels[i] = fmt.Sprintf("node %d", ns.Node)
			vals[i] = float64(ns.Probes)
		}
		fmt.Printf("\n%s  (duplicated %d of %d candidates; skew %s)\n%s",
			variants[v], ps.Duplicated, ps.Candidates, ps.ProbeSkew(), experiment.Bars(labels, vals, 46))
	}
	fmt.Println("\nfiner duplication granules flatten the distribution, as in Figure 15 of the paper.")
}

// pass2 mines the skewed stream over 8 nodes with each of the variants, under
// a memory budget small enough that the duplication choices matter, and
// returns each run's pass-2 stats.
func pass2() ([]*metrics.PassStats, error) {
	// 6 trees × 3 levels, fanout 4.
	tax := taxonomy.MustBalanced(500, 6, 4)
	leaves := tax.Leaves()

	// 80% of basket items come from tree 0's leaves (the "hot" department),
	// the rest spread uniformly.
	var hot []item.Item
	for _, l := range leaves {
		if tax.Root(l) == tax.Roots()[0] {
			hot = append(hot, l)
		}
	}
	rng := rand.New(rand.NewSource(11))
	db := &txn.DB{}
	for tid := int64(0); tid < 12000; tid++ {
		items := make([]item.Item, 0, 6)
		for len(items) < 6 {
			if rng.Float64() < 0.8 {
				items = append(items, hot[rng.Intn(len(hot))])
			} else {
				items = append(items, leaves[rng.Intn(len(leaves))])
			}
		}
		db.Append(txn.Transaction{TID: tid, Items: item.Dedup(items)})
	}

	parts := make([]txn.Scanner, 0, 8)
	for _, p := range txn.Partition(db, 8) {
		parts = append(parts, p)
	}

	const budget = 640 << 10
	var passes []*metrics.PassStats
	for _, alg := range variants {
		res, err := engines.Run(tax, parts, engines.Spec{
			Algorithm:    alg,
			MinSupport:   0.01,
			MaxK:         2,
			MemoryBudget: budget,
		})
		if err != nil {
			return nil, err
		}
		ps := res.Stats.Pass(2)
		if ps == nil {
			return nil, fmt.Errorf("%s: no pass 2", alg)
		}
		passes = append(passes, ps)
	}
	return passes, nil
}
