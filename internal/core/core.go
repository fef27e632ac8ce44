// Package core implements the paper's contribution: six parallel algorithms
// for mining generalized association rules with a classification hierarchy
// on a shared-nothing cluster.
//
//	NPGM        replicates the candidate itemsets on every node, fragmenting
//	            them when they exceed one node's memory (re-scanning the
//	            local database once per fragment).
//	HPGM        hash-partitions the candidates over the nodes; every
//	            k-subset of every (ancestor-extended) transaction is shipped
//	            to its owner.
//	H-HPGM      partitions by the hash of the candidate's *root* items, so a
//	            whole hierarchy lives on one node and only the
//	            closest-to-bottom large items travel.
//	H-HPGM-TGD  H-HPGM plus duplication of the hottest whole trees into the
//	            nodes' free memory (counted locally everywhere).
//	H-HPGM-PGD  duplicates the hottest leaf-level candidates plus all their
//	            ancestor candidates (path grain).
//	H-HPGM-FGD  duplicates the hottest candidates at any level plus their
//	            ancestor candidates (fine grain).
//
// Every algorithm produces exactly the large itemsets and support counts of
// sequential Cumulate; only communication volume, memory use and load
// balance differ — which is what the paper (and this repo's experiment
// harness) measures.
package core

import (
	"pgarm/internal/cluster"
	"pgarm/internal/driver"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// Algorithm selects one of the paper's six parallel miners.
type Algorithm = driver.Algorithm

// The six algorithms of the paper, §3.
const (
	NPGM     Algorithm = "NPGM"
	HPGM     Algorithm = "HPGM"
	HHPGM    Algorithm = "H-HPGM"
	HHPGMTGD Algorithm = "H-HPGM-TGD"
	HHPGMPGD Algorithm = "H-HPGM-PGD"
	HHPGMFGD Algorithm = "H-HPGM-FGD"
)

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{NPGM, HPGM, HHPGM, HHPGMTGD, HHPGMPGD, HHPGMFGD}
}

// Config and Result are the one run description and the one result shape
// (driver.Spec, driver.Result) under the names bench/ compiles against;
// new callers go through internal/engines. See DESIGN §3.
type (
	Config = driver.Spec
	Result = driver.Result
)

// Mine runs the configured algorithm over a cluster of len(parts) nodes;
// parts[i] is node i's local database partition (its simulated local disk).
// The taxonomy is shared read-only, as the paper assumes (the hierarchy is
// catalog metadata, replicated on every node).
func Mine(tax *taxonomy.Taxonomy, parts []txn.Scanner, cfg Config) (*Result, error) {
	// The candidate cache shares each pass's replicated derivations between
	// the in-process node goroutines; every node still holds its own miner.
	cache := newCandCache(tax)
	return driver.Run(cfg, tax, parts, func(int) (driver.Miner, error) {
		return newMiner(tax, cfg, cache)
	})
}

// MineWorker runs a single node of the mining protocol over a caller-
// provided endpoint — the entry point for true multi-process shared-nothing
// clusters (see cmd/pgarm-worker and cluster.DialMesh). The Result carries
// the global large itemsets, identical on every node after the final
// broadcast; see driver.RunWorker for what the Stats cover.
func MineWorker(tax *taxonomy.Taxonomy, local txn.Scanner, cfg Config, ep cluster.Endpoint) (*Result, error) {
	return driver.RunWorker(cfg, tax, local, ep, func() (driver.Miner, error) {
		return newMiner(tax, cfg, newCandCache(tax))
	})
}
