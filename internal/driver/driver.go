// Package driver is the shared-nothing pass runtime every parallel miner in
// this repository runs on: N node goroutines (or processes) over a
// cluster.Fabric, node 0 doubling as coordinator, executing the level-wise
// protocol of the paper — pass 1, then for each k a candidate generation, a
// count-support phase and an F_k gather/broadcast barrier.
//
// The runtime owns everything that is identical across workloads:
//
//   - coordinator/worker lifecycle and kind-filtered receive with a pending
//     stash (a fast peer's pass-k traffic must not be lost while this node
//     still waits on its pass-(k-1) barrier);
//   - each node's partition and pass 1: the closure item count and one
//     reduce of the partition sizes into |D| and the counts into global ones;
//   - the count-support Exchange (scan workers handle their own node's
//     share and batch the rest to peers; one receiver applies peer
//     batches; buffer recycling) and the sharded local scan;
//   - the F_k barrier: locally-owned frequents gathered from every node plus
//     a reduce of replicated count vectors, merged and broadcast; every node
//     hands F_k's newest level to the next generation as it was recorded,
//     and the result levels Run and RunWorker return are recorded here;
//   - per-pass metrics.NodeStats capture with monotonic fabric snapshots
//     whose windows tile the run, phase-span tracing and registry
//     instruments.
//
// What varies per workload — what pass 1's counts set up, candidate
// representation, partitioning, counting a local shard — is behind the
// four-hook Miner interface, whose count phase only says what it counted
// (PassOutcome). It has two implementations:
// internal/core (the paper's six itemset algorithms) and internal/fpg
// (taxonomy-aware parallel FP-Growth).
package driver

import (
	"errors"
	"fmt"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
)

// Message kinds of the mining protocol. Per-sender FIFO delivery (all
// fabrics guarantee it) plus the pass barriers make each kind unambiguous:
// within a pass a sender emits KData* messages, then one KDone, then its
// results (KCounts1 in pass 1, KLocalLarge/KDupCounts after), and the
// coordinator answers with one KLarge. The numeric values and display names
// predate this package and are part of the per-kind accounting surface
// (metrics.KindIO.Name); a retired kind keeps its value unsent.
const (
	kRetired1   uint8 = iota + 1 // never sent: held so no later kind's wire value moves
	KCounts1                     // node -> coord: |D_i|, then the pass-1 dense item counts
	KData                        // node -> node: count-support payload batch
	KDone                        // node -> node: end of count-support stream
	KLocalLarge                  // node -> coord: locally-owned frequents
	KDupCounts                   // node -> coord: duplicated/replicated table counts
	KLarge                       // coord -> node: global F_k broadcast (pass 1: |D|, then the global item counts)
	KTelemetry                   // node -> coord: per-pass stats + span batches (see telemetry.go)
	kRetired9                    // never sent: held so no later kind's wire value moves
	KCondBase                    // node -> node: FP-Growth conditional pattern-base batch (see internal/fpg)
)

// FabricKind selects the interconnect emulation for in-process clusters.
type FabricKind int

const (
	// FabricChan runs the nodes over in-process channels (default).
	FabricChan FabricKind = iota
	// FabricTCP runs the nodes over loopback TCP connections.
	FabricTCP
)

// NewFabric constructs the selected in-process fabric for n nodes.
func NewFabric(kind FabricKind, n, buffer int) (cluster.Fabric, error) {
	switch kind {
	case FabricChan:
		return cluster.NewChanFabric(n, buffer), nil
	case FabricTCP:
		return cluster.NewTCPFabric(n, buffer)
	}
	return nil, fmt.Errorf("driver: unknown fabric kind %d", kind)
}

// Algorithm names the miner a Spec selects: one of the paper's six candidate
// algorithms (internal/core) or "FPG" (internal/fpg). Each family declares
// its own names as constants of this type; internal/engines lists them all.
type Algorithm string

// Spec is the one description of a mining run, shared by every miner family
// and every way in (engines.Run/RunWorker, the family Mine/MineWorker entry
// points). The runtime fields are consumed here; the candidate-family knob
// MemoryBudget is consumed by internal/core, and FPG, which does not have it,
// rejects a Spec that sets it with ErrUnsupportedKnob.
type Spec struct {
	// Algorithm selects the miner. The fpg entry points treat "" as FPG;
	// every other entry point requires a name of its family.
	Algorithm  Algorithm
	MinSupport float64 // fraction of the global database size, in (0,1]
	MaxK       int     // 0 = run until F_k is empty

	// Workers is the number of scan goroutines each node uses over its local
	// partition during pass 1 and the count-support phase (see CountPhase).
	// 0 or 1 scans on the node goroutine itself; larger values shard the
	// partition across a per-node pool with per-worker count vectors merged
	// deterministically at the pass barrier, so results are bit-identical at
	// every setting. Total parallelism is nodes × workers. FP-Growth also
	// fans its pass-2 ship and mine tasks out over the same count; pass
	// boundaries (candidate generation, partition plans, index builds) run
	// in one loop whatever the setting.
	Workers int

	Fabric FabricKind // interconnect of an in-process run

	// MemoryBudget is the per-node candidate memory in bytes (the paper's
	// M, 256MB on the SP-2). It drives NPGM fragmentation and the free
	// space available for TGD/PGD/FGD duplication. 0 means unlimited: NPGM
	// never fragments and the duplicating variants copy everything.
	MemoryBudget int64

	// Tracer, when non-nil, records phase spans for every node (pass,
	// generate, scan shards, exchange, barrier) for Chrome-trace export.
	// Nil tracing costs nothing on the hot path.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives live counters/gauges/histograms per
	// node (current pass, probes, scan and barrier timings) for /metrics.
	Registry *obs.Registry
	// OnPassStart, when non-nil, fires on the coordinator as each pass k>=2
	// begins, before any scanning.
	OnPassStart func(pass, candidates int)
	// OnPass, when non-nil, fires on the coordinator as each pass completes.
	OnPass func(PassProgress)
	// View, when non-nil, receives live run-introspection updates (current
	// pass, per-node progress, last skew snapshot) for /debug/cluster. The
	// coordinator feeds it cluster-wide data from the telemetry stream;
	// followers only see their own progress.
	View *ClusterView
}

// Result is the outcome of a parallel itemset run — the one shape every
// itemset engine family returns: the global large itemsets, identical to
// sequential Cumulate's, and the run statistics.
type Result struct {
	itemset.Levels
	Stats *metrics.RunStats
}

// ErrUnsupportedKnob is wrapped by a family's validation when the Spec sets
// a knob that family does not have (FPG handed MemoryBudget).
var ErrUnsupportedKnob = errors.New("knob not supported by this engine")

// Validate rejects a malformed Spec. Run and RunWorker call it before any
// miner or fabric (listeners, goroutines) is constructed; what only the
// chosen family can judge — the algorithm name, the candidate knobs — is
// checked when that family constructs its Miner.
func (s *Spec) Validate() error {
	switch {
	case !(s.MinSupport > 0 && s.MinSupport <= 1): // also rejects NaN
		return fmt.Errorf("driver: minimum support %g out of (0,1]", s.MinSupport)
	case s.MaxK < 0:
		return fmt.Errorf("driver: negative MaxK %d", s.MaxK)
	case s.Workers < 0:
		return fmt.Errorf("driver: negative Workers %d", s.Workers)
	}
	return nil
}

// RejectCandidateKnobs is the validation of every family without a candidate
// memory model: it errors, wrapping ErrUnsupportedKnob, when the Spec sets
// MemoryBudget.
func (s *Spec) RejectCandidateKnobs() error {
	if s.MemoryBudget != 0 {
		return fmt.Errorf("driver: %s has no MemoryBudget: %w", s.Algorithm, ErrUnsupportedKnob)
	}
	return nil
}

func (s *Spec) workers() int {
	if s.Workers <= 1 {
		return 1
	}
	return s.Workers
}

// PlanDecision is re-exported from metrics: the plan phase's output, one per
// pass, recorded in pass metadata and the run report.
type PlanDecision = metrics.PlanDecision

// Miner is the mining-logic half of a run. The runtime runs pass 1 itself
// and calls these hooks from the node goroutine in protocol order; every hook
// receives the Node for access to cluster position (ID/NumNodes), the local
// partition (Local), the derived global state (MinCount) and the
// communication helpers (NewExchange, ShardObs, Span).
//
// A Miner instance belongs to exactly one node and is never called
// concurrently with itself; replicated derivations (candidate generation)
// must be pure functions of state identical on every node after each
// barrier.
type Miner interface {
	// FinishPass1 consumes pass 1: this node's own item counts (local), the
	// reduced ones (global; the same slice at one node, and neither may be
	// modified) and L_1, the items whose global count meets MinCount in item
	// order, already recorded. An empty L_1 ends the run once it returns.
	FinishPass1(n *Node, local, global []int64, l1 []itemset.Counted) error

	// Generate materializes C_k from prev, the newest level of F_(k-1) as
	// the barrier recorded it — canonical order, identical on every node,
	// read in place and not modified — and returns |C_k|. Returning 0 ends
	// the run.
	Generate(n *Node, k int, prev []itemset.Counted) (int, error)

	// PlanPass runs between Generate and CountPass — the plan phase of the
	// pass: it turns the pass's candidate set into an explicit
	// candidate-to-node assignment before any scanning starts, so the
	// assignment is an inspectable artifact (report `plan` section,
	// /debug/cluster) rather than a side effect of the count phase. The
	// decision must be a pure function of state replicated on every node
	// (C_k, the pass-1 counts, the configuration), so all nodes compute the
	// identical plan with no message; any state the plan derives (owners,
	// duplication choice) is held by the miner for the count phase. The
	// runtime fills in Pass and Candidates.
	PlanPass(n *Node, k int) (PlanDecision, error)

	// CountPass runs pass k's partition and count-support phase over the
	// local shard (routing units through n.NewExchange as needed) and
	// returns this node's barrier contribution. Scan and probe counters go
	// into st, which is the node's live pass window.
	CountPass(n *Node, k int, st *metrics.NodeStats) (PassOutcome, error)
}

// PassOutcome is one node's contribution to the pass-k barrier: what it
// counted. The runtime does the rest — a follower's Own travels to the
// coordinator as KLocalLarge and its DupCounts as KDupCounts; the coordinator
// merges every node's Own with the replicated candidates whose reduced count
// meets MinCount, records the result and broadcasts it as KLarge.
type PassOutcome struct {
	// Own is the frequents this node determined outright, already filtered
	// by MinCount, in any order. One pass may resolve several sizes at once
	// (FP-Growth's single growth pass resolves every size >= 2).
	Own []itemset.Counted

	// DupCounts is the dense count vector of candidates this node counted
	// redundantly (replicated or duplicated candidates) and DupSets the
	// itemsets behind it. The layout must be identical on every node; only
	// the coordinator's DupSets is read. Both empty when the algorithm has
	// no replicated candidates. The driver consumes DupCounts: the coordinator
	// sums the peers' vectors into it in place, so a miner hands over a
	// vector it does not read again.
	DupSets   itemset.Sets
	DupCounts []int64

	// Duplicated and Fragments feed the pass metadata (metrics.PassStats).
	Duplicated int
	Fragments  int
}

// PassProgress is the per-pass progress callback payload (Spec.OnPass),
// delivered on the coordinator when a pass completes.
type PassProgress struct {
	Pass       int
	Candidates int
	Large      int
	Elapsed    time.Duration
	// BytesIn/BytesOut are the coordinator's fabric payload bytes for the
	// pass window.
	BytesIn  int64
	BytesOut int64
}
