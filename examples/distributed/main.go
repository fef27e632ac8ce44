// Distributed: run the miner over the loopback-TCP fabric, the closest
// one-box emulation of the paper's shared-nothing SP-2 — every itemset
// group really crosses a socket — and compare the measured communication of
// HPGM against H-HPGM (the Table 6 effect, at example scale).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/txn"
)

func main() {
	params := gen.Params{
		Name:            "tcp-demo",
		NumTxns:         8000,
		AvgTxnSize:      8,
		AvgPatternSize:  4,
		NumPatterns:     400,
		NumItems:        3000,
		Roots:           10,
		Fanout:          5,
		CorrelationMean: 0.5,
		CorruptionMean:  0.5,
		CorruptionSD:    0.1,
		Seed:            3,
	}
	ds, err := gen.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	const nodes = 6
	parts := make([]txn.Scanner, 0, nodes)
	for _, p := range txn.Partition(ds.DB, nodes) {
		parts = append(parts, p)
	}

	fmt.Printf("%d transactions on %d TCP-connected nodes, minsup 1%%\n\n", ds.DB.Len(), nodes)
	for _, alg := range []core.Algorithm{core.HPGM, core.HHPGM} {
		res, err := engines.Run(ds.Taxonomy, parts, engines.Spec{
			Algorithm:  alg,
			MinSupport: 0.01,
			MaxK:       2,
			Fabric:     driver.FabricTCP,
		})
		if err != nil {
			log.Fatal(err)
		}
		ps := res.Stats.Pass(2)
		if ps == nil {
			log.Fatalf("%s: no pass 2", alg)
		}
		fmt.Printf("%-8s |C2|=%-8d |L2|=%-6d items shipped=%-9d avg received/node=%.1f KB\n",
			alg, ps.Candidates, ps.Large, ps.TotalItemsSent(), ps.AvgBytesReceived()/1024)
	}
	fmt.Println("\nH-HPGM ships only closest-to-bottom large items to the owners of their root")
	fmt.Println("trees; HPGM ships every k-subset of every ancestor-extended transaction.")
}
