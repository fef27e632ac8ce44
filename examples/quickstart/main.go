// Quickstart: mine generalized association rules over a tiny hand-built
// classification hierarchy with the paper's best algorithm (H-HPGM-FGD) on a
// 4-node simulated shared-nothing cluster, then derive rules.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pgarm/internal/core"
	"pgarm/internal/engines"
	"pgarm/internal/item"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

func main() {
	// A small retail hierarchy, in the spirit of the paper's Figure 1:
	//
	//	clothes ── outerwear ── jacket, ski pants
	//	        └─ shirt
	//	footwear ── shoes, hiking boots
	var b taxonomy.Builder
	clothes := b.AddRoot()
	footwear := b.AddRoot()
	outerwear := b.AddChild(clothes)
	shirt := b.AddChild(clothes)
	jacket := b.AddChild(outerwear)
	skiPants := b.AddChild(outerwear)
	shoes := b.AddChild(footwear)
	boots := b.AddChild(footwear)
	tax := b.MustBuild()

	names := make([]string, tax.NumItems())
	names[clothes], names[footwear] = "clothes", "footwear"
	names[outerwear], names[shirt] = "outerwear", "shirt"
	names[jacket], names[skiPants] = "jacket", "ski-pants"
	names[shoes], names[boots] = "shoes", "hiking-boots"

	// A few baskets. Note nobody buys "outerwear" literally — the
	// generalized rules below still discover outerwear => hiking-boots by
	// climbing the hierarchy.
	baskets := [][]item.Item{
		{jacket, boots},
		{skiPants, boots},
		{jacket, shoes},
		{shirt},
		{jacket, boots, shirt},
		{skiPants, boots},
	}
	db := &txn.DB{}
	for i, items := range baskets {
		db.Append(txn.Transaction{TID: int64(i + 1), Items: item.Dedup(item.Clone(items))})
	}

	// Four shared-nothing nodes, each owning a slice of the database.
	parts := make([]txn.Scanner, 0, 4)
	for _, p := range txn.Partition(db, 4) {
		parts = append(parts, p)
	}

	res, err := engines.Run(tax, parts, engines.Spec{
		Algorithm:  core.HHPGMFGD,
		MinSupport: 0.3, // 30% of 6 baskets = 2 transactions
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Large itemsets (with closure support counts):")
	for k := 1; k <= len(res.Large); k++ {
		for _, c := range res.LargeK(k) {
			fmt.Printf("  k=%d %-28s sup_cou=%d\n", k, labelSet(c.Items, names), c.Count)
		}
	}

	rs, err := rules.Derive(tax, res.All(), res.SupportIndex(), rules.Config{
		MinConfidence: 0.6,
		NumTxns:       db.Len(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGeneralized rules (confidence >= 60%%):\n%s", rules.Format(rs, names))
}

func labelSet(items []item.Item, names []string) string {
	s := "{"
	for i, x := range items {
		if i > 0 {
			s += ","
		}
		s += names[x]
	}
	return s + "}"
}
