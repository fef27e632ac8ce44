// Package driver is the shared-nothing pass runtime every parallel miner in
// this repository runs on: N node goroutines (or processes) over a
// cluster.Fabric, node 0 doubling as coordinator, executing the level-wise
// protocol of the paper — size exchange, pass 1 reduce, then for each k a
// candidate generation, a count-support phase and an F_k gather/broadcast
// barrier.
//
// The runtime owns everything that is identical across workloads:
//
//   - coordinator/worker lifecycle and kind-filtered receive with a pending
//     stash (a fast peer's pass-k traffic must not be lost while this node
//     still waits on its pass-(k-1) barrier);
//   - the size exchange and the dense pass-1 count reduce;
//   - the count-support Exchange (producer/consumer split with loopback,
//     batching and buffer recycling) and the sharded local scan;
//   - the F_k barrier: locally-owned frequents gathered from every node plus
//     a reduce of replicated count vectors, merged and broadcast;
//   - per-pass metrics.NodeStats capture with monotonic fabric snapshots
//     whose windows tile the run, phase-span tracing and registry
//     instruments.
//
// What varies per workload — candidate representation, partitioning,
// counting a local shard, encoding frequents — is behind the Miner
// interface, which has three implementations: internal/core (the paper's six
// itemset algorithms), internal/fpg (taxonomy-aware parallel FP-Growth) and
// internal/seq (the SK98 NPSPM/SPSPM/HPSPM sequence miners).
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
// results (KLocalLarge/KDupCounts), and the coordinator answers with one
// KLarge. The numeric values and display names predate this package and are
// part of the per-kind accounting surface (metrics.KindIO.Name).
const (
	KSize       uint8 = iota + 1 // node -> coord: local partition size; coord -> node: |D|
	KCounts1                     // node -> coord: pass-1 dense item counts
	KData                        // node -> node: count-support payload batch
	KDone                        // node -> node: end of count-support stream
	KLocalLarge                  // node -> coord: locally-owned frequents
	KDupCounts                   // node -> coord: duplicated/replicated table counts
	KLarge                       // coord -> node: global F_k broadcast
	KTelemetry                   // node -> coord: per-pass stats + span batches (see telemetry.go)
	KPlan                        // coord -> node: pass-k skew hint for the plan phase (see plan.go)
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
// algorithms (internal/core), "FPG" (internal/fpg) or a sequence miner
// (internal/seq). Each family declares its own names as constants of this
// type; internal/engines lists the itemset ones.
type Algorithm string

// Spec is the one description of a mining run, shared by every miner family
// and every way in (engines.Run/RunWorker, the family Mine/MineWorker entry
// points, seq.MineParallel). The runtime fields are consumed here; the
// candidate-family knobs (MemoryBudget, Adaptive, EscalateAt, JumpAt) are
// consumed by internal/core, and a family that does not have them rejects a
// Spec that sets them with ErrUnsupportedKnob.
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
	// every setting. Total parallelism is nodes × workers.
	Workers int

	Fabric FabricKind // interconnect of an in-process run

	// MemoryBudget is the per-node candidate memory in bytes (the paper's
	// M, 256MB on the SP-2). It drives NPGM fragmentation and the free
	// space available for TGD/PGD/FGD duplication. 0 means unlimited: NPGM
	// never fragments and the duplicating variants copy everything.
	MemoryBudget int64
	// Adaptive enables skew-adaptive duplication granules for the H-HPGM
	// family: each pass's plan phase inspects the previous complete skew
	// snapshot and, when the barrier-wait imbalance crosses EscalateAt,
	// escalates the duplication granule for the straggler's hot taxonomy
	// subtrees one level (H-HPGM -> TGD -> PGD -> FGD), or straight to FGD
	// past JumpAt. The decision is computed from globally broadcast state,
	// so every node derives the identical plan and results stay
	// bit-identical. Ignored by NPGM and HPGM, which have no granule.
	Adaptive bool
	// EscalateAt is the barrier-wait max/mean ratio that triggers a one-level
	// escalation; 0 means the default 1.25.
	EscalateAt float64
	// JumpAt is the ratio past which escalation jumps straight to the fine
	// grain; 0 means the default 4.0.
	JumpAt float64

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
// a knob that family does not have (FPG or a sequence miner handed
// MemoryBudget, Adaptive, EscalateAt or JumpAt).
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
// one of the internal/core knobs.
func (s *Spec) RejectCandidateKnobs() error {
	if s.MemoryBudget != 0 || s.Adaptive || s.EscalateAt != 0 || s.JumpAt != 0 {
		return fmt.Errorf("driver: %s has no MemoryBudget/Adaptive/EscalateAt/JumpAt: %w", s.Algorithm, ErrUnsupportedKnob)
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

// Miner is the mining-logic half of a run. The runtime calls these hooks
// from the node goroutine in protocol order; every hook receives the Node
// for access to cluster position (ID/NumNodes), the derived global state
// (TotalSize/MinCount) and the communication helpers (NewExchange,
// ShardObs, Span).
//
// A Miner instance belongs to exactly one node and is never called
// concurrently with itself; replicated derivations (candidate generation)
// must be pure functions of state identical on every node after each
// barrier.
type Miner interface {
	// LocalSize is the size of the local partition (transactions, customers)
	// reported during the size exchange.
	LocalSize() int

	// NumItems is the size of the dense pass-1 count vector (the item
	// universe).
	NumItems() int

	// CountPass1 scans the local partition and returns the dense per-item
	// support counts; scan counters (TxnsScanned, ...) go into st.
	CountPass1(n *Node, st *metrics.NodeStats) ([]int64, error)

	// FinishPass1 consumes the globally reduced pass-1 counts, records F_1
	// (when n.Keep()) and returns |F_1|. Returning 0 ends the run.
	FinishPass1(n *Node, global []int64) (int, error)

	// Generate materializes C_k from F_(k-1) — identical on every node — and
	// returns |C_k|. Returning 0 ends the run.
	Generate(n *Node, k int) (int, error)

	// PlanPass runs between Generate and CountPass — the plan phase of the
	// pass: it turns the pass's candidate set into an explicit
	// candidate-to-node assignment before any scanning starts, so the
	// assignment is an inspectable artifact (report `plan` section,
	// /debug/cluster) rather than a side effect of the count phase. prev is
	// the latest complete cluster skew snapshot, broadcast by the coordinator
	// at the start of the pass (nil while none is complete — the first passes
	// of a run); adaptive miners may escalate duplication per hot taxonomy
	// subtree from it. The decision must be a pure function of prev and state
	// replicated on every node, so all nodes compute the identical plan; any
	// state the plan derives (owners, duplication choice) is held by the
	// miner for the count phase.
	PlanPass(n *Node, k int, prev *metrics.SkewReport) (PlanDecision, error)

	// CountPass runs pass k's partition and count-support phase over the
	// local shard (routing units through n.NewExchange as needed) and
	// returns this node's barrier contribution. Scan and probe counters go
	// into st, which is the node's live pass window.
	CountPass(n *Node, k int, st *metrics.NodeStats) (PassOutcome, error)

	// MergeFrequents runs on the coordinator only: it merges its own pass
	// outcome (held internally by the miner), the peers' encoded owned
	// frequents and the reduced replicated counts into the global F_k,
	// records it (when n.Keep()) and returns its encoded broadcast form plus
	// |F_k|.
	MergeFrequents(n *Node, k int, peerOwned [][]byte, dupTotal []int64) ([]byte, int, error)

	// FinishPass runs on followers only: it decodes the coordinator's F_k
	// broadcast, records it (when n.Keep()) and returns |F_k|.
	FinishPass(n *Node, k int, payload []byte) (int, error)
}

// PassOutcome is one node's contribution to the pass-k barrier.
type PassOutcome struct {
	// Owned is the encoded locally-determined frequents, sent to the
	// coordinator as KLocalLarge. Followers must always set it (possibly to
	// an encoded empty list); the coordinator keeps its own share in miner
	// state for MergeFrequents and may leave Owned nil.
	Owned []byte

	// DupCounts is the dense count vector of candidates this node counted
	// redundantly (replicated or duplicated candidates); the coordinator
	// reduces the vectors element-wise before thresholding. May be nil when
	// the algorithm has no replicated candidates. The vector layout must be
	// identical on every node.
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
