package seq

import (
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/driver"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
)

// Algorithm selects a parallel sequential-pattern miner, following the
// naming of [SK98] (Shintani & Kitsuregawa, PAKDD'98):
//
//	NPSPM  Non-Partitioned: candidate sequences replicated on every node;
//	       purely local counting plus a coordinator reduce (the sequence
//	       analogue of NPGM).
//	SPSPM  Simply Partitioned: candidate sequences hash-partitioned over the
//	       nodes; every node broadcasts its local customer sequences so each
//	       owner can count its share (the analogue of naive HPGM — heavy
//	       communication, aggregate-memory friendly).
//	HPSPM  Hash-Partitioned: candidates partitioned by the hash of their
//	       *root vector* (the roots of every member item), the H-HPGM rule,
//	       so each node is shipped only the sequence items relevant to its
//	       own candidates — same counts as SPSPM at a fraction of the bytes.
type Algorithm = driver.Algorithm

// The implemented parallel sequential miners.
const (
	NPSPM Algorithm = "NPSPM"
	SPSPM Algorithm = "SPSPM"
	HPSPM Algorithm = "HPSPM"
)

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{NPSPM, SPSPM, HPSPM}
}

// ParseAlgorithm resolves a name (as printed by the Algorithm constants,
// case-sensitive) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("seq: unknown algorithm %q", s)
}

// ParallelResult carries the frequent patterns and per-pass statistics.
type ParallelResult struct {
	*Result
	Stats *metrics.RunStats
}

// MineParallel runs spec.Algorithm over len(parts) shared-nothing nodes
// (goroutines over the configured fabric) and returns the frequent
// generalized sequential patterns — identical to sequential Mine.
func MineParallel(tax *taxonomy.Taxonomy, parts []*DB, spec driver.Spec) (*ParallelResult, error) {
	coord, stats, err := driver.Run(spec, len(parts), func(i int) (driver.Miner, error) {
		return newSeqMiner(tax, parts[i], spec)
	})
	if err != nil {
		return nil, err
	}
	return result(coord, stats), nil
}

// MineWorker runs a single node of the sequence-mining protocol over a
// caller-provided endpoint — the entry point for true multi-process
// shared-nothing clusters (see cluster.DialMesh). The result carries the
// global frequent patterns, identical on every node after the final
// broadcast; see driver.RunWorker for what the Stats cover.
func MineWorker(tax *taxonomy.Taxonomy, local *DB, spec driver.Spec, ep cluster.Endpoint) (*ParallelResult, error) {
	nd, stats, err := driver.RunWorker(spec, ep, func() (driver.Miner, error) {
		return newSeqMiner(tax, local, spec)
	})
	if err != nil {
		return nil, err
	}
	return result(nd, stats), nil
}

func result(nd *driver.Node, stats *metrics.RunStats) *ParallelResult {
	res := nd.Miner().(*seqMiner).result
	if res == nil {
		res = &Result{NumCustomers: nd.TotalSize()}
	}
	return &ParallelResult{Result: res, Stats: stats}
}
