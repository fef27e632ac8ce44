package seq

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"pgarm/internal/cluster"
	"pgarm/internal/driver"
	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
)

// TestSeqFabricsMatchSequential runs every sequence miner over both
// in-process fabrics with sharded scans and checks bit-identical results plus
// exact endpoint reconciliation and per-kind traffic accounting.
func TestSeqFabricsMatchSequential(t *testing.T) {
	tax, db := parallelDataset(t)
	want, err := Mine(tax, db, Config{MinSupport: 0.05, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	fabrics := []struct {
		name string
		kind driver.FabricKind
	}{{"chan", driver.FabricChan}, {"tcp", driver.FabricTCP}}
	for _, alg := range Algorithms() {
		for _, f := range fabrics {
			t.Run(fmt.Sprintf("%s/%s", alg, f.name), func(t *testing.T) {
				if f.kind == driver.FabricTCP && testing.Short() {
					t.Skip("tcp fabric in short mode")
				}
				got, err := MineParallel(tax, Partition(db, 3), driver.Spec{
					Algorithm:  alg,
					MinSupport: 0.05,
					MaxK:       3,
					Workers:    2,
					Fabric:     f.kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertSamePatterns(t, want, got.Result)
				if err := got.Stats.ReconcileEndpoints(); err != nil {
					t.Fatalf("reconcile: %v", err)
				}
				ps := got.Stats.Pass(2)
				if ps == nil {
					t.Fatal("no pass 2")
				}
				for _, ns := range ps.Nodes {
					if len(ns.ByKind) == 0 {
						t.Fatalf("node %d pass 2 missing per-kind stats", ns.Node)
					}
				}
				if alg != NPSPM {
					// Partitioned miners must account their sequence traffic
					// under the data kind.
					var dataBytes int64
					for _, ns := range ps.Nodes {
						if int(driver.KData) < len(ns.ByKind) {
							dataBytes += ns.ByKind[driver.KData].BytesSent
						}
					}
					if dataBytes == 0 {
						t.Errorf("%s pass 2 recorded no data-kind bytes", alg)
					}
				}
			})
		}
	}
}

// TestSeqWorkerMesh runs every sequence miner as three MineWorker instances
// over a real TCP mesh (the multi-process deployment path, exercised
// in-process) and checks that every worker converges to the sequential GSP
// result with balanced accounting.
func TestSeqWorkerMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh run in short mode")
	}
	tax, db := parallelDataset(t)
	want, err := Mine(tax, db, Config{MinSupport: 0.05, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 3
	parts := Partition(db, nodes)
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			// Pre-bind listeners so the test controls the addresses.
			listeners := make([]net.Listener, nodes)
			addrs := make([]string, nodes)
			for i := range listeners {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				listeners[i] = ln
				addrs[i] = ln.Addr().String()
			}
			results := make([]*ParallelResult, nodes)
			errs := make([]error, nodes)
			var wg sync.WaitGroup
			for i := 0; i < nodes; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ep, closer, err := cluster.DialMesh(i, addrs, cluster.MeshOptions{Listener: listeners[i]})
					if err != nil {
						errs[i] = err
						return
					}
					defer closer.Close()
					results[i], errs[i] = MineWorker(tax, parts[i], driver.Spec{
						Algorithm:  alg,
						MinSupport: 0.05,
						MaxK:       3,
					}, ep)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			for i, res := range results {
				if res == nil || res.Result == nil {
					t.Fatalf("worker %d returned no result", i)
				}
				assertSamePatterns(t, want, res.Result)
				if res.Stats == nil || len(res.Stats.Passes) == 0 {
					t.Fatalf("worker %d missing stats", i)
				}
				if err := res.Stats.ReconcileEndpoints(); err != nil {
					t.Errorf("worker %d reconcile: %v", i, err)
				}
			}
		})
	}
}

// TestCandidateOwnershipProperty checks the partitioning invariant both
// hash-partitioned miners rely on: every candidate is owned by exactly one
// node (a deterministic function of the candidate alone), and under HPSPM
// candidates with equal root vectors — H-HPGM tree combinations — share an
// owner.
func TestCandidateOwnershipProperty(t *testing.T) {
	tax := taxonomy.MustBalanced(60, 3, 3)
	randPattern := func(rng *rand.Rand) [][]item.Item {
		elements := make([][]item.Item, 1+rng.Intn(3))
		for i := range elements {
			e := make([]item.Item, 1+rng.Intn(2))
			for j := range e {
				e[j] = item.Item(rng.Intn(tax.NumItems()))
			}
			elements[i] = item.Dedup(e)
		}
		return elements
	}
	f := func(seed int64, nNodes uint8) bool {
		n := 1 + int(nNodes%8)
		rng := rand.New(rand.NewSource(seed))
		c := randPattern(rng)
		for _, alg := range []Algorithm{SPSPM, HPSPM} {
			owner := candidateOwner(tax, alg, c, n)
			if owner < 0 || owner >= n {
				return false
			}
			// Deterministic: recomputing on another "node" agrees.
			if candidateOwner(tax, alg, c, n) != owner {
				return false
			}
		}
		// HPSPM: reordering elements and replacing items by ancestors both
		// preserve the root vector, so the owner must not move.
		owner := candidateOwner(tax, HPSPM, c, n)
		rev := make([][]item.Item, len(c))
		for i := range c {
			rev[i] = c[len(c)-1-i]
		}
		if candidateOwner(tax, HPSPM, rev, n) != owner {
			return false
		}
		up := make([][]item.Item, len(c))
		for i, e := range c {
			ue := make([]item.Item, len(e))
			for j, x := range e {
				ue[j] = x
				if p := tax.Parent(x); p != item.None {
					ue[j] = p
				}
			}
			up[i] = ue
		}
		return candidateOwner(tax, HPSPM, up, n) == owner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHPSPMMovesFewerItemsThanSPSPM pins the point of HPSPM: identical
// counts to SPSPM while shipping only the sequence items relevant to each
// owner's candidates.
func TestHPSPMMovesFewerItemsThanSPSPM(t *testing.T) {
	tax, db := parallelDataset(t)
	run := func(alg Algorithm) (*ParallelResult, int64, int64) {
		res, err := MineParallel(tax, Partition(db, 4), driver.Spec{
			Algorithm:  alg,
			MinSupport: 0.05,
			MaxK:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var items, bytes int64
		for _, ps := range res.Stats.Passes {
			if ps.Pass < 2 {
				continue
			}
			items += ps.TotalItemsSent()
			for _, ns := range ps.Nodes {
				bytes += ns.DataBytesSent
			}
		}
		return res, items, bytes
	}
	sres, sItems, sBytes := run(SPSPM)
	hres, hItems, hBytes := run(HPSPM)
	assertSamePatterns(t, sres.Result, hres.Result)
	if hItems == 0 {
		t.Fatal("HPSPM shipped nothing; partitioned counting needs data movement")
	}
	if hItems >= sItems {
		t.Errorf("HPSPM shipped %d items, SPSPM %d; HPSPM must move strictly less", hItems, sItems)
	}
	if hBytes >= sBytes {
		t.Errorf("HPSPM shipped %d data bytes, SPSPM %d; HPSPM must move strictly less", hBytes, sBytes)
	}
	t.Logf("count-support items sent: SPSPM %d, HPSPM %d (%.1f%%); data bytes: SPSPM %d, HPSPM %d (%.1f%%)",
		sItems, hItems, 100*float64(hItems)/float64(sItems),
		sBytes, hBytes, 100*float64(hBytes)/float64(sBytes))
}

// TestParallelConfigValidationExtended pins rejection of malformed knobs
// before any fabric is constructed, and that HPSPM parses as a first-class
// algorithm.
func TestParallelConfigValidationExtended(t *testing.T) {
	tax, db := parallelDataset(t)
	parts := Partition(db, 2)
	bad := []driver.Spec{
		{Algorithm: NPSPM, MinSupport: 0.1, Workers: -2},
		{Algorithm: NPSPM, MinSupport: 0.1, MaxK: -1},
		{Algorithm: NPSPM, MinSupport: 1.5},
		// The candidate-family knob the sequence miners do not have.
		{Algorithm: NPSPM, MinSupport: 0.1, MemoryBudget: 1 << 20},
	}
	for i, cfg := range bad {
		if _, err := MineParallel(tax, parts, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if a, err := ParseAlgorithm("HPSPM"); err != nil || a != HPSPM {
		t.Errorf("ParseAlgorithm(HPSPM) = %v, %v", a, err)
	}
	if _, err := ParseAlgorithm("hpspm"); err == nil {
		t.Error("algorithm names are case-sensitive")
	}
	// MineWorker validates before touching the endpoint.
	f := cluster.NewChanFabric(1, 4)
	defer f.Close()
	if _, err := MineWorker(tax, db, driver.Spec{Algorithm: "nope", MinSupport: 0.1}, f.Endpoint(0)); err == nil {
		t.Error("bad algorithm must fail")
	}
	if _, err := MineWorker(tax, db, driver.Spec{Algorithm: HPSPM, MinSupport: 0}, f.Endpoint(0)); err == nil {
		t.Error("zero support must fail")
	}
}
