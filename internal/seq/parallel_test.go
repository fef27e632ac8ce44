package seq

import (
	"fmt"
	"testing"

	"pgarm/internal/driver"
	"pgarm/internal/taxonomy"
)

func parallelDataset(t *testing.T) (*taxonomy.Taxonomy, *DB) {
	t.Helper()
	tax := taxonomy.MustBalanced(300, 5, 4)
	p := DefaultGenParams()
	p.NumCustomers = 600
	p.AvgElements = 4
	p.AvgElementSize = 2
	return tax, GenerateSequences(tax, p)
}

func TestParallelMatchesSequential(t *testing.T) {
	tax, db := parallelDataset(t)
	want, err := Mine(tax, db, Config{MinSupport: 0.05, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Frequent) < 2 {
		t.Fatalf("weak test data: %d levels", len(want.Frequent))
	}
	for _, alg := range []Algorithm{NPSPM, SPSPM} {
		for _, nodes := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/%dnodes", alg, nodes), func(t *testing.T) {
				got, err := MineParallel(tax, Partition(db, nodes), driver.Spec{
					Algorithm:  alg,
					MinSupport: 0.05,
					MaxK:       3,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertSamePatterns(t, want, got.Result)
			})
		}
	}
}

func assertSamePatterns(t *testing.T, want, got *Result) {
	t.Helper()
	if got == nil {
		t.Fatal("nil result")
	}
	if len(want.Frequent) != len(got.Frequent) {
		t.Fatalf("levels: sequential %d, parallel %d", len(want.Frequent), len(got.Frequent))
	}
	for k := 1; k <= len(want.Frequent); k++ {
		w, g := want.FrequentK(k), got.FrequentK(k)
		if len(w) != len(g) {
			t.Fatalf("F_%d size: sequential %d, parallel %d", k, len(w), len(g))
		}
		for i := range w {
			if !Equal(w[i].Elements, g[i].Elements) || w[i].Count != g[i].Count {
				t.Fatalf("F_%d[%d]: sequential %v, parallel %v", k, i, w[i], g[i])
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	tax, db := parallelDataset(t)
	if _, err := MineParallel(tax, nil, driver.Spec{Algorithm: NPSPM, MinSupport: 0.1}); err == nil {
		t.Error("no partitions must fail")
	}
	if _, err := MineParallel(tax, Partition(db, 2), driver.Spec{Algorithm: "bogus", MinSupport: 0.1}); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if _, err := MineParallel(tax, Partition(db, 2), driver.Spec{Algorithm: NPSPM, MinSupport: 0}); err == nil {
		t.Error("zero support must fail")
	}
}

func TestNPSPMHasNoDataExchange(t *testing.T) {
	tax, db := parallelDataset(t)
	res, err := MineParallel(tax, Partition(db, 3), driver.Spec{
		Algorithm:  NPSPM,
		MinSupport: 0.05,
		MaxK:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Pass(2)
	if ps == nil {
		t.Fatal("no pass 2")
	}
	if got := ps.TotalItemsSent(); got != 0 {
		t.Errorf("NPSPM shipped %d items; counting is local", got)
	}
}

func TestSPSPMBroadcastsSequences(t *testing.T) {
	tax, db := parallelDataset(t)
	res, err := MineParallel(tax, Partition(db, 3), driver.Spec{
		Algorithm:  SPSPM,
		MinSupport: 0.05,
		MaxK:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Pass(2)
	if ps == nil {
		t.Fatal("no pass 2")
	}
	if ps.TotalItemsSent() == 0 {
		t.Error("SPSPM must broadcast sequence data")
	}
	// Candidate memory per node shrinks ~Nx vs NPSPM; probes spread too:
	// every node probes only its owned candidates.
	var totalProbes int64
	for _, ns := range ps.Nodes {
		totalProbes += ns.Probes
	}
	npspm, err := MineParallel(tax, Partition(db, 3), driver.Spec{
		Algorithm:  NPSPM,
		MinSupport: 0.05,
		MaxK:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nps := npspm.Stats.Pass(2)
	var npProbes int64
	for _, ns := range nps.Nodes {
		npProbes += ns.Probes
	}
	// SPSPM: each candidate checked once per customer (at its owner);
	// NPSPM: each candidate checked once per LOCAL customer per node —
	// same global total. Allow slack for rounding.
	if totalProbes != npProbes {
		t.Errorf("global probe totals differ: SPSPM %d vs NPSPM %d", totalProbes, npProbes)
	}
}
