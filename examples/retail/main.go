// Retail: mine a synthetic retail chain's baskets — the workload the
// paper's introduction motivates (POS data over a product classification
// hierarchy) — comparing the flat Apriori view with the generalized view,
// and showing the R-interestingness filter.
//
//	go run ./examples/retail
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pgarm/internal/core"
	"pgarm/internal/cumulate"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/rules"
	"pgarm/internal/txn"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run mines the catalog and writes the comparison, the rule counts, the top
// rules and the pass-2 cluster statistics to w.
func run(w io.Writer) error {
	// A department-store-sized catalog: 12 departments, fanout 6,
	// ~5000 SKUs, 20,000 baskets.
	params := gen.Params{
		Name:            "retail-demo",
		NumTxns:         20000,
		AvgTxnSize:      8,
		AvgPatternSize:  4,
		NumPatterns:     600,
		NumItems:        5000,
		Roots:           12,
		Fanout:          6,
		CorrelationMean: 0.5,
		CorruptionMean:  0.5,
		CorruptionSD:    0.1,
		Seed:            42,
	}
	ds, err := gen.Generate(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "catalog: %v; %d baskets, avg size %.1f\n\n",
		ds.Taxonomy, ds.DB.Len(), ds.DB.AvgSize())

	const minSup, minConf = 0.01, 0.5

	// Flat mining sees only SKU-level co-occurrence.
	flat, err := cumulate.Apriori(ds.DB, cumulate.Config{MinSupport: minSup}, ds.Taxonomy.NumItems())
	if err != nil {
		return err
	}
	flatPairs := len(flat.LargeK(2))

	// Generalized mining on an 8-node shared-nothing cluster.
	parts := make([]txn.Scanner, 0, 8)
	for _, p := range txn.Partition(ds.DB, 8) {
		parts = append(parts, p)
	}
	res, err := engines.Run(ds.Taxonomy, parts, engines.Spec{
		Algorithm:  core.HHPGMFGD,
		MinSupport: minSup,
	})
	if err != nil {
		return err
	}
	genPairs := len(res.LargeK(2))
	fmt.Fprintf(w, "large 2-itemsets: flat Apriori %d vs generalized %d\n", flatPairs, genPairs)
	fmt.Fprintln(w, "(the hierarchy surfaces department/category associations invisible at SKU level)")

	rs, err := rules.Derive(ds.Taxonomy, res.All(), res.SupportIndex(), rules.Config{
		MinConfidence: minConf,
		NumTxns:       ds.DB.Len(),
	})
	if err != nil {
		return err
	}
	interesting := rules.Prune(ds.Taxonomy, rs, res.SupportIndex(), ds.DB.Len(), 1.3)
	fmt.Fprintf(w, "\nrules at conf>=%.0f%%: %d total, %d survive R-interestingness (R=1.3)\n",
		minConf*100, len(rs), len(interesting))
	fmt.Fprintln(w, "\ntop rules by confidence:")
	for i, r := range interesting {
		if i >= 10 {
			break
		}
		fmt.Fprintf(w, "  %s\n", r)
	}

	st := res.Stats.Pass(2)
	if st != nil {
		fmt.Fprintf(w, "\npass-2 cluster stats: %d candidates, %d duplicated, %.1f KB received/node, probe skew %s\n",
			st.Candidates, st.Duplicated, st.AvgBytesReceived()/1024, st.ProbeSkew())
	}
	return nil
}
