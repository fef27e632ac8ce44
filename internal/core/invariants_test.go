package core

import (
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/taxonomy"
)

// TestAccountingSymmetry checks the exact communication invariant: per
// pass, Σ count-support data bytes sent == Σ received across the cluster
// (a node's own share never enters the exchange; every peer payload is
// conserved).
// DataBytes* counters are exact by construction — the sent side is
// snapshotted before any pass-end control traffic, and the received side
// is counted at delivery. (The raw whole-pass Bytes*/Msgs* counters are
// intentionally not asserted: nodes cross pass barriers at slightly
// different times, so their attribution can shift between adjacent passes;
// see the metrics.NodeStats docs.)
func TestAccountingSymmetry(t *testing.T) {
	ds := testDataset(t, 2000)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{
				Algorithm: alg, MinSupport: 0.02, MaxK: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range res.Stats.Passes {
				var dataSent, dataRecv int64
				for _, ns := range ps.Nodes {
					dataSent += ns.DataBytesSent
					dataRecv += ns.DataBytesReceived
				}
				if dataSent != dataRecv {
					t.Errorf("pass %d count-support: %d bytes sent vs %d received",
						ps.Pass, dataSent, dataRecv)
				}
			}
		})
	}
}

// TestPartitionCompleteness verifies the H-HPGM invariant directly: every
// candidate has exactly one owner under the root hash, and owners agree
// with the candidate's root vector.
func TestPartitionCompleteness(t *testing.T) {
	tax := taxonomy.MustBalanced(200, 5, 4)
	large := make([]item.Item, 0, 60)
	for i := 0; i < 60; i++ {
		large = append(large, item.Item(i*3%200))
	}
	large = item.Dedup(large)
	prev := make([][]item.Item, len(large))
	for i, it := range large {
		prev[i] = []item.Item{it}
	}
	cands := cumulate.GenerateCandidates(tax, prev, 2)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	const nodes = 7
	owned := make(map[string]int)
	for _, c := range cands {
		vec := rootVector(tax, nil, c)
		owner := int(itemset.Hash(vec) % nodes)
		key := itemset.Key(c)
		if prevOwner, ok := owned[key]; ok && prevOwner != owner {
			t.Fatalf("candidate %v owned by two nodes", c)
		}
		owned[key] = owner
		// Same root vector => same owner.
		other := rootVector(tax, nil, c)
		if int(itemset.Hash(other)%nodes) != owner {
			t.Fatalf("owner not a function of the root vector for %v", c)
		}
	}
	if len(owned) != len(cands) {
		t.Fatalf("owned %d of %d candidates", len(owned), len(cands))
	}
}

// TestHierarchyEliminatesAncestorTraffic checks the qualitative claim of
// §3.3 on a dataset with deep hierarchies: H-HPGM's shipped item count must
// be bounded by roughly the number of transaction items (closest-to-bottom
// forms), while HPGM ships every subset of the ancestor extension.
func TestHierarchyEliminatesAncestorTraffic(t *testing.T) {
	ds := testDataset(t, 2500)
	const nodes = 5
	run := func(alg Algorithm) int64 {
		res, err := Mine(ds.Taxonomy, partsOf(ds.DB, nodes), Config{
			Algorithm: alg, MinSupport: 0.02, MaxK: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Stats.Pass(2)
		if ps == nil {
			t.Fatal("no pass 2")
		}
		return ps.TotalItemsSent()
	}
	hpgm := run(HPGM)
	hhpgm := run(HHPGM)
	if hhpgm*2 >= hpgm {
		t.Errorf("expected >2x item-traffic reduction: HPGM %d, H-HPGM %d", hpgm, hhpgm)
	}
	t.Logf("items shipped at pass 2: HPGM %d, H-HPGM %d (%.1fx)", hpgm, hhpgm, float64(hpgm)/float64(hhpgm))
}

// TestDuplicatedCandidatesNeverTravel verifies the TGD communication claim:
// with everything duplicated (unlimited budget), the duplicating variants
// exchange no count-support data at all.
func TestDuplicatedCandidatesNeverTravel(t *testing.T) {
	ds := testDataset(t, 1200)
	for _, alg := range []Algorithm{HHPGMTGD, HHPGMPGD, HHPGMFGD} {
		res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{
			Algorithm: alg, MinSupport: 0.03, MaxK: 2, // MemoryBudget 0 = duplicate all
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Stats.Pass(2)
		if ps == nil {
			t.Fatal("no pass 2")
		}
		if got := ps.TotalItemsSent(); got != 0 {
			t.Errorf("%s with full duplication still shipped %d items", alg, got)
		}
		if ps.Duplicated != ps.Candidates {
			t.Errorf("%s duplicated %d of %d", alg, ps.Duplicated, ps.Candidates)
		}
	}
}

// TestStatsShape sanity-checks the assembled RunStats.
func TestStatsShape(t *testing.T) {
	ds := testDataset(t, 1000)
	res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 3), Config{
		Algorithm: HHPGM, MinSupport: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Algorithm != "H-HPGM" || st.Nodes != 3 {
		t.Errorf("header wrong: %+v", st)
	}
	if len(st.Passes) < 2 {
		t.Fatalf("expected >=2 passes, got %d", len(st.Passes))
	}
	for _, ps := range st.Passes {
		if len(ps.Nodes) != 3 {
			t.Errorf("pass %d has %d node stats", ps.Pass, len(ps.Nodes))
		}
		var txns int64
		for _, ns := range ps.Nodes {
			txns += ns.TxnsScanned
		}
		if txns != int64(ds.DB.Len()) {
			t.Errorf("pass %d scanned %d transactions, want %d", ps.Pass, txns, ds.DB.Len())
		}
		if ps.Pass >= 2 && ps.Candidates == 0 {
			t.Errorf("pass %d candidates not recorded", ps.Pass)
		}
	}
	if st.String() == "" {
		t.Error("empty String")
	}
}
