package core

import (
	"fmt"
	"strings"
	"testing"

	"pgarm/internal/cumulate"
)

// goldenCounters renders a run's exact counters, one line per pass and per
// node: |C_k|, duplicated candidates, then probes/increments/items-sent per
// node. These are the quantities Fig 15 plots and metrics.CostModel prices.
func goldenCounters(res *Result) string {
	var b strings.Builder
	for _, p := range res.Stats.Passes {
		if p.Pass < 2 {
			continue
		}
		fmt.Fprintf(&b, "p%d c=%d d=%d", p.Pass, p.Candidates, p.Duplicated)
		for _, n := range p.Nodes {
			fmt.Fprintf(&b, " | %d %d %d", n.Probes, n.Increments, n.ItemsSent)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenCounters pins the paper-facing counters of all six algorithms on
// one small fixed dataset. Probes is a property of the algorithm — the
// k-subsets of the extended transaction (or received item group) offered to
// the node's candidate table — not of the index that answers them, so the
// literals below, recorded from the enumerate-and-probe implementation, must
// survive any change of counting structure.
func TestGoldenCounters(t *testing.T) {
	ds := testDataset(t, 600)
	const (
		minSup = 0.03
		nodes  = 3
		budget = 512 << 10 // NPGM fragments pass 2; PGD/FGD duplicate part of C_2
	)
	want := map[Algorithm]string{
		NPGM:     goldenNPGM,
		HPGM:     goldenHPGM,
		HHPGM:    goldenHHPGM,
		HHPGMTGD: goldenTGD,
		HHPGMPGD: goldenPGD,
		HHPGMFGD: goldenFGD,
	}
	for _, alg := range Algorithms() {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", alg, workers), func(t *testing.T) {
				res, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{
					Algorithm: alg, MinSupport: minSup, MaxK: 3,
					MemoryBudget: budget, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenCounters(res); got != want[alg] {
					t.Errorf("counters moved:\n got:\n%s want:\n%s", got, want[alg])
				}
			})
		}
	}

	// FGD with no budget duplicates every candidate: the routing-free path.
	res, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{Algorithm: HHPGMFGD, MinSupport: minSup, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenCounters(res); got != goldenFGDNoBudget {
		t.Errorf("FGD/no-budget counters moved:\n got:\n%s want:\n%s", got, goldenFGDNoBudget)
	}

	seq, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Probes != goldenCumulateProbes {
		t.Errorf("cumulate.Result.Probes = %d, want %d", seq.Probes, goldenCumulateProbes)
	}
}

// Recorded from the parent of the prefix-kernel change (enumerate-and-probe
// at every counting site). Format: see goldenCounters.
const (
	goldenNPGM = `p2 c=17723 d=17723 | 62846 26353 0 | 66752 28225 0 | 66032 27828 0
p3 c=3468 d=3468 | 98459 17615 0 | 107404 18482 0 | 103832 17393 0
`
	goldenHPGM = `p2 c=17723 d=0 | 32831 27437 41992 | 32966 27630 44250 | 32018 27339 44458
p3 c=3468 d=0 | 105134 18518 195228 | 102116 17716 216261 | 102445 17256 208743
`
	goldenHHPGM = `p2 c=17723 d=0 | 64869 23575 1863 | 83504 37527 1753 | 64706 21304 1946
p3 c=3468 d=0 | 217222 16892 1925 | 240212 19189 1908 | 235789 17409 1953
`
	goldenTGD = `p2 c=17723 d=0 | 64869 23575 1863 | 83504 37527 1753 | 64706 21304 1946
p3 c=3468 d=3468 | 98459 17615 0 | 107404 18482 0 | 103832 17393 0
`
	goldenPGD = `p2 c=17723 d=1277 | 84135 25482 1863 | 103482 34761 1753 | 85217 22163 1946
p3 c=3468 d=0 | 217222 16892 1925 | 240212 19189 1908 | 235789 17409 1953
`
	goldenFGD = `p2 c=17723 d=1281 | 80087 25487 1863 | 91408 33355 1753 | 78596 23564 1946
p3 c=3468 d=3468 | 98459 17615 0 | 107404 18482 0 | 103832 17393 0
`
	goldenFGDNoBudget = `p2 c=17723 d=17723 | 31423 26353 0 | 33376 28225 0 | 33016 27828 0
p3 c=3468 d=3468 | 98459 17615 0 | 107404 18482 0 | 103832 17393 0
`
	goldenCumulateProbes = 407510
)
