// Package metrics collects the per-node and per-pass measurements the
// paper's evaluation reports: communication volume (Table 6), execution time
// (Figures 13, 14, 16) and hash-table probe counts per node — the load
// distribution of Figure 15 — plus the skew summary statistics used to
// compare algorithms.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pgarm/internal/cluster"
)

// NodeStats are the counters one node accumulates during one pass. Every
// scalar here has exactly one row in Counters, which is what carries it onto
// the telemetry plane, into the run report and onto /metrics.
type NodeStats struct {
	Node          int
	TxnsScanned   int64 // transactions read from local disk
	Probes        int64 // k-subsets offered to the node's candidate table while counting
	Increments    int64 // sup_cou increments actually applied
	ItemsSent     int64 // items shipped to other nodes (paper's "sends N items")
	ItemsReceived int64 // items received from other nodes during count support
	// Traffic is the whole-pass fabric window (MsgsSent, MsgsReceived,
	// BytesSent, BytesReceived), computed as the delta between monotonic
	// endpoint snapshots taken at pass boundaries. The per-pass windows tile
	// the run exactly: summed over all passes they equal the endpoint's
	// lifetime totals.
	cluster.Traffic
	// DataBytesSent/Received cover only the count-support exchange (message
	// kind "data") — the traffic Table 6 reports — excluding the L_k gather
	// and broadcast. The sent side is the per-kind snapshot delta, the
	// received side counted at delivery.
	DataBytesSent     int64
	DataBytesReceived int64
	// BlocksScanned/BytesDecoded profile the block-granular scan path of
	// columnar partitions: blocks decoded and their encoded bytes. Sources
	// without blocks leave them zero. BlocksSkipped is written only by the
	// sequence miners: customer sequences their root-mask test ruled out
	// before any closure build or probe.
	BlocksScanned int64
	BlocksSkipped int64
	BytesDecoded  int64
	ScanTime      time.Duration // local scan + counting wall time
	// BarrierWait is how long this node blocked in the pass-end L_k
	// gather/broadcast barrier — the direct measure of load skew: an idle
	// node waits for the cluster's straggler.
	BarrierWait time.Duration
	// ByKind breaks the pass's fabric traffic down by message kind, indexed
	// by kind; entries for kinds unused this pass are zero.
	ByKind []KindIO
}

// Counter declares one scalar counter of a node's pass window: where it
// lives in NodeStats and how every consumer spells it. The telemetry codec,
// AddScanCounters, the run report's per-node JSON and the driver's registry
// updates all walk Counters, so a new per-pass fact is one NodeStats field
// plus one row (a test checks the pairing).
type Counter struct {
	// Key is the counter's JSON key in the run report. A Duration counter is
	// reported in milliseconds; Optional ones are omitted when zero.
	Key      string
	Duration bool
	Optional bool
	// Series and Help name the per-node /metrics series the driver feeds as
	// each pass closes — a counter, or for a Duration a histogram in seconds
	// observed once per pass. Empty: no series.
	Series, Help string
	// Scan marks what a partition scan accumulates per scan worker and
	// AddScanCounters folds. The rest — communication windows, wall times —
	// is owned by the node.
	Scan bool
	// At addresses the counter in a window (a Duration through its int64
	// nanoseconds).
	At func(*NodeStats) *int64
}

// Counters lists the pass window's scalar counters in the order KTelemetry
// carries them, which is also the report's key order. Changing the order or
// adding a row changes the wire format and needs a telemetryVersion bump.
var Counters = [...]Counter{
	{Key: "txns_scanned", Scan: true, Series: "pgarm_txns_scanned_total", Help: "Transactions scanned across all passes.",
		At: func(s *NodeStats) *int64 { return &s.TxnsScanned }},
	{Key: "probes", Scan: true, Series: "pgarm_probes_total", Help: "Candidate-table probes.",
		At: func(s *NodeStats) *int64 { return &s.Probes }},
	{Key: "increments", Scan: true, Series: "pgarm_increments_total", Help: "Support-count increments applied.",
		At: func(s *NodeStats) *int64 { return &s.Increments }},
	{Key: "items_sent", Scan: true, Series: "pgarm_items_sent_total", Help: "Items shipped to other nodes.",
		At: func(s *NodeStats) *int64 { return &s.ItemsSent }},
	{Key: "items_received", At: func(s *NodeStats) *int64 { return &s.ItemsReceived }},
	{Key: "bytes_sent", At: func(s *NodeStats) *int64 { return &s.BytesSent }},
	{Key: "bytes_received", At: func(s *NodeStats) *int64 { return &s.BytesReceived }},
	{Key: "data_bytes_sent", At: func(s *NodeStats) *int64 { return &s.DataBytesSent }},
	{Key: "data_bytes_received", At: func(s *NodeStats) *int64 { return &s.DataBytesReceived }},
	{Key: "msgs_sent", At: func(s *NodeStats) *int64 { return &s.MsgsSent }},
	{Key: "msgs_received", At: func(s *NodeStats) *int64 { return &s.MsgsReceived }},
	{Key: "blocks_scanned", Optional: true, Scan: true, Series: "pgarm_blocks_scanned_total", Help: "Columnar partition blocks decoded during local scans.",
		At: func(s *NodeStats) *int64 { return &s.BlocksScanned }},
	{Key: "blocks_skipped", Optional: true, Scan: true, Series: "pgarm_blocks_skipped_total", Help: "Customer sequences the sequence miners' root-mask test ruled out before matching.",
		At: func(s *NodeStats) *int64 { return &s.BlocksSkipped }},
	{Key: "bytes_decoded", Optional: true, Scan: true, Series: "pgarm_bytes_decoded_total", Help: "Encoded bytes of decoded columnar blocks.",
		At: func(s *NodeStats) *int64 { return &s.BytesDecoded }},
	{Key: "scan_ms", Duration: true, At: func(s *NodeStats) *int64 { return (*int64)(&s.ScanTime) }},
	{Key: "barrier_wait_ms", Duration: true, Series: "pgarm_barrier_wait_seconds", Help: "Per-pass L_k barrier wait.",
		At: func(s *NodeStats) *int64 { return (*int64)(&s.BarrierWait) }},
}

// KindIO is one message kind's traffic during one node's pass window.
type KindIO struct {
	Kind uint8  `json:"kind"`
	Name string `json:"name,omitempty"`
	cluster.Traffic
}

// AddScanCounters folds a scan worker's counters into the node's pass
// totals: the Scan rows of Counters.
func (s *NodeStats) AddScanCounters(w *NodeStats) {
	for _, c := range Counters {
		if c.Scan {
			*c.At(s) += *c.At(w)
		}
	}
}

// MarshalJSON renders the window as the run report's per-node object: the
// node id, every row of Counters under its key, then the per-kind traffic.
func (s NodeStats) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt([]byte(`{"node":`), int64(s.Node), 10)
	for _, c := range Counters {
		v := *c.At(&s)
		if v == 0 && c.Optional {
			continue
		}
		b = append(b, `,"`+c.Key+`":`...)
		if c.Duration { // printed as encoding/json prints a float64 of this range
			b = strconv.AppendFloat(b, ms(time.Duration(v)), 'f', -1, 64)
		} else {
			b = strconv.AppendInt(b, v, 10)
		}
	}
	if len(s.ByKind) > 0 {
		kinds, err := json.Marshal(s.ByKind)
		if err != nil {
			return nil, err
		}
		b = append(append(b, `,"by_kind":`...), kinds...)
	}
	return append(b, '}'), nil
}

// PassStats aggregates one pass across the cluster.
type PassStats struct {
	Pass       int
	Candidates int           // |C_k| (total, before partitioning)
	Duplicated int           // candidates copied to every node (TGD/PGD/FGD)
	Fragments  int           // NPGM candidate fragments (scan repetitions)
	Large      int           // |L_k|
	Elapsed    time.Duration // wall time of the whole pass
	Generate   time.Duration // candidate-generation share of Elapsed
	// Plan is the pass's candidate-to-node assignment decision, recorded by
	// the driver's plan phase (nil only for runs predating it).
	Plan  *PlanDecision
	Nodes []NodeStats
}

// AvgBytesReceived returns mean count-support payload bytes received per
// node — the quantity of Table 6.
func (p *PassStats) AvgBytesReceived() float64 {
	if len(p.Nodes) == 0 {
		return 0
	}
	var sum int64
	for _, n := range p.Nodes {
		sum += n.DataBytesReceived
	}
	return float64(sum) / float64(len(p.Nodes))
}

// TotalItemsSent sums the items shipped between nodes.
func (p *PassStats) TotalItemsSent() int64 {
	var sum int64
	for _, n := range p.Nodes {
		sum += n.ItemsSent
	}
	return sum
}

// column lists one figure of every node's window, in node order.
func column(nodes []NodeStats, of func(*NodeStats) int64) []float64 {
	vals := make([]float64, len(nodes))
	for i := range nodes {
		vals[i] = float64(of(&nodes[i]))
	}
	return vals
}

// ProbeSkew summarizes the per-node probe distribution.
func (p *PassStats) ProbeSkew() Skew {
	return Summarize(column(p.Nodes, func(n *NodeStats) int64 { return n.Probes }))
}

// BarrierWaitSkew summarizes the per-node barrier-wait distribution — high
// max/mean means one straggler held the whole cluster at the pass barrier.
func (p *PassStats) BarrierWaitSkew() Skew {
	return Summarize(column(p.Nodes, func(n *NodeStats) int64 { return int64(n.BarrierWait) }))
}

// Skew describes how evenly a per-node quantity is distributed.
type Skew struct {
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// CV is the coefficient of variation (stddev/mean); 0 is perfectly flat.
	CV float64 `json:"cv"`
	// MaxOverMean is the bottleneck factor: >1 means the busiest node does
	// proportionally more work than average, bounding speedup.
	MaxOverMean float64 `json:"max_over_mean"`
}

// Summarize computes skew statistics over per-node values.
func Summarize(vals []float64) Skew {
	if len(vals) == 0 {
		return Skew{}
	}
	s := Skew{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(vals)))
	if s.Mean != 0 {
		s.CV = sd / s.Mean
		s.MaxOverMean = s.Max / s.Mean
	}
	return s
}

// SkewReport is the per-pass cluster-imbalance summary the coordinator's
// telemetry plane computes and the JSON run report carries: how unevenly one
// pass's work landed across nodes, and who the straggler was — the direct
// input for adaptive re-partitioning.
type SkewReport struct {
	Pass int `json:"pass"`
	// BarrierWaitMaxOverMean is the barrier-wait imbalance ratio: 1.0 means
	// every node idled equally long at the L_k barrier; large values mean one
	// straggler held the cluster while the rest waited.
	BarrierWaitMaxOverMean float64 `json:"barrier_wait_max_over_mean"`
	// BytesSentCV / BlocksScannedCV are coefficients of variation of the
	// per-node fabric bytes sent and blocks scanned this pass — communication
	// and scan-load spread (Aouad et al.'s dominant distributed-Apriori
	// variance sources).
	BytesSentCV     float64 `json:"bytes_sent_cv"`
	BlocksScannedCV float64 `json:"blocks_scanned_cv"`
	// Straggler is the node with the longest local scan+count time this pass
	// (ties resolved to the lowest id); -1 when no node stats are available.
	Straggler int `json:"straggler"`
}

// ComputeSkew derives the pass's skew summary from its per-node stats.
func ComputeSkew(pass int, nodes []NodeStats) SkewReport {
	sr := SkewReport{Pass: pass, Straggler: -1}
	if len(nodes) == 0 {
		return sr
	}
	straggler := nodes[0]
	for _, n := range nodes {
		if n.ScanTime > straggler.ScanTime ||
			(n.ScanTime == straggler.ScanTime && n.Node < straggler.Node) {
			straggler = n
		}
	}
	sr.BarrierWaitMaxOverMean = Summarize(column(nodes, func(n *NodeStats) int64 { return int64(n.BarrierWait) })).MaxOverMean
	sr.BytesSentCV = Summarize(column(nodes, func(n *NodeStats) int64 { return n.BytesSent })).CV
	sr.BlocksScannedCV = Summarize(column(nodes, func(n *NodeStats) int64 { return n.BlocksScanned })).CV
	sr.Straggler = straggler.Node
	return sr
}

// String renders the skew summary.
func (s Skew) String() string {
	return fmt.Sprintf("min=%.0f max=%.0f mean=%.0f cv=%.3f max/mean=%.2f",
		s.Min, s.Max, s.Mean, s.CV, s.MaxOverMean)
}

// RunStats aggregates a whole mining run.
type RunStats struct {
	Algorithm string
	Dataset   string
	Nodes     int
	MinSup    float64
	Elapsed   time.Duration
	Passes    []PassStats
	// Endpoints are the lifetime fabric totals per node, captured when the
	// run finishes. Per-pass windows reconcile against them: for every node
	// and kind, the pass deltas sum exactly to these totals.
	Endpoints []EndpointTotals
}

// EndpointTotals are one node's lifetime fabric counters.
type EndpointTotals struct {
	Node int `json:"node"`
	cluster.Traffic
	ByKind []KindIO `json:"by_kind,omitempty"`
}

// FinalPlan returns the last pass's plan decision — the granule map the run
// ended on — or nil when no pass recorded one.
func (r *RunStats) FinalPlan() *PlanDecision {
	for i := len(r.Passes) - 1; i >= 0; i-- {
		if r.Passes[i].Plan != nil {
			return r.Passes[i].Plan
		}
	}
	return nil
}

// Pass returns the stats of pass k, or nil if the run ended earlier.
func (r *RunStats) Pass(k int) *PassStats {
	for i := range r.Passes {
		if r.Passes[i].Pass == k {
			return &r.Passes[i]
		}
	}
	return nil
}

// String renders a multi-line run summary.
func (r *RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s, %d nodes, minsup %.3g%%: %v total\n",
		r.Algorithm, r.Dataset, r.Nodes, r.MinSup*100, r.Elapsed.Round(time.Millisecond))
	for _, p := range r.Passes {
		fmt.Fprintf(&b, "  pass %d: |C|=%d dup=%d frag=%d |L|=%d %v (gen %v) recv/node=%.1fKB probeskew{%s}\n",
			p.Pass, p.Candidates, p.Duplicated, p.Fragments, p.Large,
			p.Elapsed.Round(time.Millisecond), p.Generate.Round(time.Millisecond),
			p.AvgBytesReceived()/1024, p.ProbeSkew())
	}
	return b.String()
}
