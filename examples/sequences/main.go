// Sequences: the paper's stated future work — mining *generalized
// sequential patterns* over the classification hierarchy (GSP, SA96) and
// its shared-nothing parallelization in the spirit of [SK98]. A planted
// "jacket then hiking boots" buying pattern is recovered at every hierarchy
// level, sequentially and on a 4-node cluster.
//
//	go run ./examples/sequences
package main

import (
	"fmt"
	"log"

	"pgarm/internal/engines"
	"pgarm/internal/item"
	"pgarm/internal/seq"
	"pgarm/internal/taxonomy"
)

func main() {
	var b taxonomy.Builder
	clothes := b.AddRoot()
	footwear := b.AddRoot()
	outerwear := b.AddChild(clothes)
	jacket := b.AddChild(outerwear)
	skiPants := b.AddChild(outerwear)
	boots := b.AddChild(footwear)
	shoes := b.AddChild(footwear)
	tax := b.MustBuild()
	names := []string{"clothes", "footwear", "outerwear", "jacket", "ski-pants", "hiking-boots", "shoes"}

	// 100 customers; 70 buy a jacket or ski-pants first and boots on a
	// later visit, 30 browse shoes only.
	db := &seq.DB{}
	for cid := int64(0); cid < 100; cid++ {
		switch {
		case cid%10 < 4:
			db.Append(seq.Sequence{CID: cid, Elements: [][]item.Item{{jacket}, {shoes}, {boots}}})
		case cid%10 < 7:
			db.Append(seq.Sequence{CID: cid, Elements: [][]item.Item{{skiPants}, {boots}}})
		default:
			db.Append(seq.Sequence{CID: cid, Elements: [][]item.Item{{shoes}}})
		}
	}

	res, err := seq.Mine(tax, db, seq.Config{MinSupport: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("frequent generalized sequential patterns (sequential GSP):")
	printPatterns(res, names)

	par, err := seq.MineParallel(tax, seq.Partition(db, 4), engines.Spec{
		Algorithm:  seq.SPSPM,
		MinSupport: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	same := len(par.All()) == len(res.All())
	fmt.Printf("\n4-node SPSPM found %d patterns — identical to sequential: %v\n", len(par.All()), same)
	if ps := par.Stats.Pass(2); ps != nil {
		fmt.Printf("pass-2 cluster stats: %d candidate sequences, %d items broadcast\n",
			ps.Candidates, ps.TotalItemsSent())
	}
}

func printPatterns(res *seq.Result, names []string) {
	for k := 2; k <= len(res.Frequent); k++ {
		for _, p := range res.FrequentK(k) {
			fmt.Printf("  %s  (%d customers)\n", render(p.Elements, names), p.Count)
		}
	}
}

func render(elements [][]item.Item, names []string) string {
	s := "<"
	for _, e := range elements {
		s += "{"
		for i, x := range e {
			if i > 0 {
				s += ","
			}
			s += names[x]
		}
		s += "}"
	}
	return s + ">"
}
