package core

import (
	"fmt"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// testDataset generates a small but structurally faithful dataset once per
// test binary.
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

// assertSameLarge compares parallel output against the sequential baseline,
// level by level, itemset by itemset, count by count.
func assertSameLarge(t *testing.T, want *cumulate.Result, got *Result) {
	t.Helper()
	if len(want.Large) != len(got.Large) {
		t.Fatalf("pass count: sequential found %d levels, parallel %d", len(want.Large), len(got.Large))
	}
	for k := 1; k <= len(want.Large); k++ {
		w, g := want.LargeK(k), got.LargeK(k)
		if len(w) != len(g) {
			t.Fatalf("L_%d size: sequential %d, parallel %d", k, len(w), len(g))
		}
		for i := range w {
			if !item.Equal(w[i].Items, g[i].Items) {
				t.Fatalf("L_%d[%d]: sequential %v, parallel %v", k, i, w[i].Items, g[i].Items)
			}
			if w[i].Count != g[i].Count {
				t.Fatalf("L_%d[%d] %v count: sequential %d, parallel %d",
					k, i, w[i].Items, w[i].Count, g[i].Count)
			}
		}
	}
}

func TestAllAlgorithmsMatchCumulate(t *testing.T) {
	ds := testDataset(t, 3000)
	const minSup = 0.02
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	if len(want.Large) < 2 {
		t.Fatalf("weak test data: only %d large levels", len(want.Large))
	}
	for _, alg := range Algorithms() {
		for _, nodes := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("%s/%dnodes", alg, nodes), func(t *testing.T) {
				parts := partsOf(ds.DB, nodes)
				got, err := Mine(ds.Taxonomy, parts, Config{
					Algorithm:  alg,
					MinSupport: minSup,
				})
				if err != nil {
					t.Fatalf("mine: %v", err)
				}
				assertSameLarge(t, want, got)
			})
		}
	}
}

func TestAlgorithmsMatchCumulateWithMemoryBudget(t *testing.T) {
	ds := testDataset(t, 2000)
	const minSup = 0.02
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	// A budget tight enough to force NPGM fragmentation and to restrict
	// TGD/PGD/FGD duplication to a subset, over even and skewed partitions:
	// a hoarding node changes which candidates the largest partitioned share
	// leaves room to duplicate, never which itemsets are frequent.
	for _, budget := range []int64{2 << 10, 16 << 10, 1 << 20} {
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("%s/budget%d", alg, budget), func(t *testing.T) {
				for _, split := range []struct {
					name  string
					parts func(*txn.DB, int) []txn.Scanner
				}{{"even", partsOf}, {"skewed", skewedParts}} {
					t.Run(split.name, func(t *testing.T) {
						got, err := Mine(ds.Taxonomy, split.parts(ds.DB, 4), Config{
							Algorithm:    alg,
							MinSupport:   minSup,
							MemoryBudget: budget,
						})
						if err != nil {
							t.Fatalf("mine: %v", err)
						}
						assertSameLarge(t, want, got)
					})
				}
			})
		}
	}
}

// TestNPGMFragmentScans runs NPGM under a budget that splits C_k into
// several memory fragments, with two scan workers per node. The replicated
// count (hierEngine.countReplicated) hands each fragment scan its [lo, hi)
// window of the worker vectors through driver.CountTable, which accepts it
// only from an index of exactly hi-lo candidates, so a scan holds its own
// fragment and nothing more: a scan handed all of C_k fails the mine. L_k must equal
// Cumulate's, every fragment re-scans the partition against the same
// member filter (Probes is the unbudgeted count times the fragment count),
// and each contained candidate is counted once (Increments is unchanged).
func TestNPGMFragmentScans(t *testing.T) {
	ds := testDataset(t, 1500)
	const minSup = 0.02
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	mine := func(budget int64) *Result {
		t.Helper()
		res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 2), Config{
			Algorithm:    NPGM,
			MinSupport:   minSup,
			MemoryBudget: budget,
			Workers:      2,
		})
		if err != nil {
			t.Fatalf("mine at budget %d: %v", budget, err)
		}
		return res
	}
	whole, split := mine(0), mine(4<<10)
	assertSameLarge(t, want, split)
	maxFrags := 0
	for i, ps := range split.Stats.Passes {
		ref := whole.Stats.Passes[i]
		maxFrags = max(maxFrags, ps.Fragments)
		for n, ns := range ps.Nodes {
			rn := ref.Nodes[n]
			if ns.Probes != int64(ps.Fragments)*rn.Probes || ns.Increments != rn.Increments {
				t.Errorf("pass %d node %d, %d fragments: %d probes / %d increments, want %d / %d",
					ps.Pass, n, ps.Fragments, ns.Probes, ns.Increments, int64(ps.Fragments)*rn.Probes, rn.Increments)
			}
		}
	}
	if maxFrags < 2 {
		t.Fatalf("budget split no pass into fragments (max %d)", maxFrags)
	}
}

func TestTCPFabricMatchesChanFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fabric round in short mode")
	}
	ds := testDataset(t, 1500)
	const minSup = 0.02
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}
	for _, alg := range []Algorithm{HPGM, HHPGM, HHPGMFGD} {
		t.Run(string(alg), func(t *testing.T) {
			parts := partsOf(ds.DB, 4)
			got, err := Mine(ds.Taxonomy, parts, Config{
				Algorithm:  alg,
				MinSupport: minSup,
				Fabric:     driver.FabricTCP,
			})
			if err != nil {
				t.Fatalf("mine over TCP: %v", err)
			}
			assertSameLarge(t, want, got)
		})
	}
}

func TestHHPGMSendsFewerItemsThanHPGM(t *testing.T) {
	ds := testDataset(t, 3000)
	parts := partsOf(ds.DB, 4)
	run := func(alg Algorithm) *Result {
		r, err := Mine(ds.Taxonomy, partsOf(ds.DB, len(parts)), Config{Algorithm: alg, MinSupport: 0.02, MaxK: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		return r
	}
	hpgm := run(HPGM)
	hhpgm := run(HHPGM)
	h := hpgm.Stats.Pass(2)
	hh := hhpgm.Stats.Pass(2)
	if h == nil || hh == nil {
		t.Fatal("missing pass-2 stats")
	}
	if hh.TotalItemsSent() >= h.TotalItemsSent() {
		t.Errorf("H-HPGM shipped %d items, HPGM %d; hierarchy partitioning should reduce communication",
			hh.TotalItemsSent(), h.TotalItemsSent())
	}
	if hh.AvgBytesReceived() >= h.AvgBytesReceived() {
		t.Errorf("H-HPGM received %.0f B/node, HPGM %.0f B/node; expected reduction",
			hh.AvgBytesReceived(), h.AvgBytesReceived())
	}
}

func TestSingleNodeDegenerate(t *testing.T) {
	ds := testDataset(t, 800)
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(ds.Taxonomy, []txn.Scanner{ds.DB}, Config{Algorithm: HHPGMFGD, MinSupport: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	assertSameLarge(t, want, got)
}

func TestMineRejectsBadConfig(t *testing.T) {
	tax := taxonomy.MustBalanced(10, 2, 3)
	db := txn.NewDB([]txn.Transaction{{TID: 1, Items: []item.Item{5}}})
	if _, err := Mine(tax, nil, Config{Algorithm: HHPGM, MinSupport: 0.1}); err == nil {
		t.Error("expected error for zero partitions")
	}
	if _, err := Mine(tax, []txn.Scanner{db}, Config{Algorithm: HHPGM, MinSupport: 0}); err == nil {
		t.Error("expected error for zero minimum support")
	}
	if _, err := Mine(tax, []txn.Scanner{db}, Config{Algorithm: "bogus", MinSupport: 0.1}); err == nil {
		t.Error("expected error for unknown algorithm")
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

// skewedParts splits the database so node 0 hoards half the transactions and
// the rest spread evenly — the load-skew regime of §3.4. Contiguous slices,
// so the split is deterministic.
func skewedParts(db *txn.DB, n int) []txn.Scanner {
	if n == 1 {
		return partsOf(db, 1)
	}
	total := db.Len()
	first := total / 2
	parts := make([]txn.Scanner, 0, n)
	p := &txn.DB{}
	for i := 0; i < first; i++ {
		p.Append(db.At(i))
	}
	parts = append(parts, p)
	rest := total - first
	off := first
	for i := 1; i < n; i++ {
		sz := rest / (n - 1)
		if i <= rest%(n-1) {
			sz++
		}
		q := &txn.DB{}
		for j := 0; j < sz; j++ {
			q.Append(db.At(off + j))
		}
		off += sz
		parts = append(parts, q)
	}
	return parts
}

// sanity for the helper itself
func TestPartsOfCoversAllTransactions(t *testing.T) {
	ds := testDataset(t, 100)
	parts := partsOf(ds.DB, 3)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != ds.DB.Len() {
		t.Fatalf("partitioning lost transactions: %d != %d", total, ds.DB.Len())
	}
}

var _ = itemset.Key // keep import for helpers used across test files
