// Package fpg is the repository's second miner family: a generalized
// (taxonomy-aware) parallel FP-Growth engine over the shared pass driver.
//
// Where the Cumulate/H-HPGM family (internal/core) is
// candidate-generate-and-count — and pays Apriori's exponential candidate
// explosion at low minimum support — this engine grows patterns directly
// from a compact FP-tree and never materializes a candidate set:
//
//   - Pass 1 is the same closure item count as Cumulate's, and fixes the
//     global frequency order (count descending, item id ascending) — a pure
//     function of the broadcast count vector, identical on every node.
//   - Each node builds an FP-tree forest (one arena-allocated tree per scan
//     worker, header-table links, no maps on the hot path) over the
//     ancestor-closure of its local partition, restricted to large items.
//   - Mining decomposes into independent per-suffix-item tasks: the patterns
//     whose highest-frequency-rank item is r come exactly from r's
//     conditional pattern base, so the tasks partition the output and fan
//     out across nodes (rank mod N) and Workers with no deduplication. A
//     task grows its patterns through conditional trees that hold only the
//     ranks frequent in their base: each is tallied before it is built.
//   - In cluster mode each suffix rank's conditional base is shipped to its
//     owner through the driver's exchange machinery as a dedicated fabric
//     message kind (KCondBase) with exact per-kind byte accounting; once
//     exchanged the bases are global, so mined counts are exact global
//     supports and the barrier needs no replicated count reduce.
//   - The taxonomy is enforced by construction: prefix items in the ancestor
//     relation with the suffix item are filtered as each base is extracted,
//     which excludes exactly the item/ancestor pairs Cumulate prunes from
//     C_2 (and by apriori closure, from every C_k).
//
// The result is bit-identical to cumulate.Mine — same levels, same counts,
// same canonical (size, lex) order — at any node count, worker count and
// fabric, which the bit-identity sweep in fpg_test.go asserts.
package fpg

import (
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/driver"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// Engine is the engine name this family registers under (see
// internal/engines); also the algorithm label in run reports.
const Engine = "FPG"

// Config and Result are the one run description and the one result shape
// (driver.Spec, driver.Result) under the names bench/ compiles against;
// new callers go through internal/engines. See DESIGN §3. MaxK bounds the
// pattern length; Workers also sizes the tree build, the base shipping and
// the suffix-task mining.
type (
	Config = driver.Spec
	Result = driver.Result
)

// check is this family's share of validation: the Spec must name this engine
// (or nothing) and set none of the candidate-family knobs.
func check(cfg *Config) error {
	if cfg.Algorithm == "" {
		cfg.Algorithm = Engine
	}
	if cfg.Algorithm != Engine {
		return fmt.Errorf("fpg: algorithm %q is not %s", cfg.Algorithm, Engine)
	}
	return cfg.RejectCandidateKnobs()
}

// runSpec is the Spec the driver runs: the whole pattern growth happens in
// driver pass 2 (Generate(3) returns 0), so the driver's MaxK only matters
// for MaxK == 1 — pattern length is bounded inside the recursion instead.
func runSpec(cfg Config) driver.Spec {
	if cfg.MaxK > 1 {
		cfg.MaxK = 0
	}
	return cfg
}

// Mine runs generalized FP-Growth over a cluster of len(parts) in-process
// nodes; parts[i] is node i's local database partition. The taxonomy is
// shared read-only, as the paper assumes.
func Mine(tax *taxonomy.Taxonomy, parts []txn.Scanner, cfg Config) (*Result, error) {
	if err := check(&cfg); err != nil {
		return nil, err
	}
	return driver.Run(runSpec(cfg), tax, parts, func(int) (driver.Miner, error) {
		return newFpgMiner(tax, cfg), nil
	})
}

// MineWorker runs a single node of the FP-Growth protocol over a caller-
// provided endpoint — the multi-process entry point (cmd/pgarm-worker via
// cluster.DialMesh). Every worker must run the same Config; node 0 acts as
// coordinator.
func MineWorker(tax *taxonomy.Taxonomy, local txn.Scanner, cfg Config, ep cluster.Endpoint) (*Result, error) {
	if err := check(&cfg); err != nil {
		return nil, err
	}
	return driver.RunWorker(runSpec(cfg), tax, local, ep, func() (driver.Miner, error) {
		return newFpgMiner(tax, cfg), nil
	})
}
