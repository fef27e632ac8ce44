package metrics

import (
	"fmt"
	"time"

	"pgarm/internal/obs"
)

// Report is the machine-readable form of one mining run: RunStats flattened
// into stable JSON plus span rollups from the tracer (when tracing was on).
// It is the diffable artifact `pgarm-bench -json` emits. The schema carries
// no version number: a report is a set of named sections, each present when
// that part of the run happened, and the key set is pinned by a golden test.
type Report struct {
	Algorithm string       `json:"algorithm"`
	Dataset   string       `json:"dataset"`
	Nodes     int          `json:"nodes"`
	MinSup    float64      `json:"min_sup"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Passes    []PassReport `json:"passes"`
	// Skew carries one cluster-imbalance summary per pass, computed from the
	// same per-node stats Passes reports — the two sections reconcile by
	// construction.
	Skew []SkewReport `json:"skew,omitempty"`
	// Plan carries one candidate-assignment decision per pass: the
	// partitioner, the duplication granule and any adaptive per-subtree
	// escalations the pass ran with.
	Plan      []PlanDecision   `json:"plan,omitempty"`
	Endpoints []EndpointTotals `json:"endpoints,omitempty"`
	Spans     []obs.Rollup     `json:"spans,omitempty"`
	// SpansDropped counts spans the tracer discarded at its buffer cap
	// (cluster-wide when remote tracers were merged in); non-zero means the
	// trace file is truncated.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// PassReport is one pass of a Report.
type PassReport struct {
	Pass       int     `json:"pass"`
	Candidates int     `json:"candidates"`
	Duplicated int     `json:"duplicated,omitempty"`
	Fragments  int     `json:"fragments,omitempty"`
	Large      int     `json:"large"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	GenerateMS float64 `json:"generate_ms,omitempty"`
	// AvgDataBytesReceived is Table 6's quantity: mean count-support payload
	// bytes received per node.
	AvgDataBytesReceived float64      `json:"avg_data_bytes_received"`
	ProbeSkew            Skew         `json:"probe_skew"`
	BarrierWaitSkew      Skew         `json:"barrier_wait_skew"`
	Nodes                []NodeReport `json:"nodes"`
}

// NodeReport is one node's counters within one pass.
type NodeReport struct {
	Node              int      `json:"node"`
	TxnsScanned       int64    `json:"txns_scanned"`
	Probes            int64    `json:"probes"`
	Increments        int64    `json:"increments"`
	ItemsSent         int64    `json:"items_sent"`
	ItemsReceived     int64    `json:"items_received"`
	BytesSent         int64    `json:"bytes_sent"`
	BytesReceived     int64    `json:"bytes_received"`
	DataBytesSent     int64    `json:"data_bytes_sent"`
	DataBytesReceived int64    `json:"data_bytes_received"`
	MsgsSent          int64    `json:"msgs_sent"`
	MsgsReceived      int64    `json:"msgs_received"`
	BlocksScanned     int64    `json:"blocks_scanned,omitempty"`
	BlocksSkipped     int64    `json:"blocks_skipped,omitempty"`
	BytesDecoded      int64    `json:"bytes_decoded,omitempty"`
	ScanMS            float64  `json:"scan_ms"`
	BarrierWaitMS     float64  `json:"barrier_wait_ms"`
	ByKind            []KindIO `json:"by_kind,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BuildReport flattens a run into its report form. tracer may be nil; when
// tracing was on its per-span rollups are embedded.
func BuildReport(rs *RunStats, tracer *obs.Tracer) Report {
	rep := Report{
		Algorithm: rs.Algorithm,
		Dataset:   rs.Dataset,
		Nodes:     rs.Nodes,
		MinSup:    rs.MinSup,
		ElapsedMS: ms(rs.Elapsed),
		Endpoints: rs.Endpoints,
		Spans:     tracer.Rollups(),
	}
	rep.SpansDropped = tracer.Dropped()
	for _, p := range rs.Passes {
		pr := PassReport{
			Pass:                 p.Pass,
			Candidates:           p.Candidates,
			Duplicated:           p.Duplicated,
			Fragments:            p.Fragments,
			Large:                p.Large,
			ElapsedMS:            ms(p.Elapsed),
			GenerateMS:           ms(p.Generate),
			AvgDataBytesReceived: p.AvgBytesReceived(),
			ProbeSkew:            p.ProbeSkew(),
			BarrierWaitSkew:      p.BarrierWaitSkew(),
		}
		for _, n := range p.Nodes {
			pr.Nodes = append(pr.Nodes, NodeReport{
				Node:              n.Node,
				TxnsScanned:       n.TxnsScanned,
				Probes:            n.Probes,
				Increments:        n.Increments,
				ItemsSent:         n.ItemsSent,
				ItemsReceived:     n.ItemsReceived,
				BytesSent:         n.BytesSent,
				BytesReceived:     n.BytesReceived,
				DataBytesSent:     n.DataBytesSent,
				DataBytesReceived: n.DataBytesReceived,
				MsgsSent:          n.MsgsSent,
				MsgsReceived:      n.MsgsReceived,
				BlocksScanned:     n.BlocksScanned,
				BlocksSkipped:     n.BlocksSkipped,
				BytesDecoded:      n.BytesDecoded,
				ScanMS:            ms(n.ScanTime),
				BarrierWaitMS:     ms(n.BarrierWait),
				ByKind:            n.ByKind,
			})
		}
		rep.Passes = append(rep.Passes, pr)
		rep.Skew = append(rep.Skew, ComputeSkew(p.Pass, p.Nodes))
		if p.Plan != nil {
			rep.Plan = append(rep.Plan, *p.Plan)
		}
	}
	return rep
}

// ReconcileEndpoints checks that the per-pass windows tile the run: for every
// node, the pass deltas (aggregate and per kind) sum exactly to the
// endpoint's lifetime totals. It returns nil when the accounting balances.
func (r *RunStats) ReconcileEndpoints() error {
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("metrics: no endpoint totals recorded")
	}
	type agg struct {
		msgsSent, msgsRecv, bytesSent, bytesRecv int64
		byKind                                   map[uint8]KindIO
	}
	perNode := make(map[int]*agg)
	for _, p := range r.Passes {
		for _, n := range p.Nodes {
			a := perNode[n.Node]
			if a == nil {
				a = &agg{byKind: make(map[uint8]KindIO)}
				perNode[n.Node] = a
			}
			a.msgsSent += n.MsgsSent
			a.msgsRecv += n.MsgsReceived
			a.bytesSent += n.BytesSent
			a.bytesRecv += n.BytesReceived
			for _, k := range n.ByKind {
				cur := a.byKind[k.Kind]
				cur.Kind = k.Kind
				cur.MsgsSent += k.MsgsSent
				cur.MsgsReceived += k.MsgsReceived
				cur.BytesSent += k.BytesSent
				cur.BytesReceived += k.BytesReceived
				a.byKind[k.Kind] = cur
			}
		}
	}
	for _, ep := range r.Endpoints {
		a := perNode[ep.Node]
		if a == nil {
			a = &agg{byKind: make(map[uint8]KindIO)}
		}
		if a.msgsSent != ep.MsgsSent || a.msgsRecv != ep.MsgsReceived ||
			a.bytesSent != ep.BytesSent || a.bytesRecv != ep.BytesReceived {
			return fmt.Errorf("metrics: node %d pass sums (sent %d msgs/%d B, recv %d msgs/%d B) != endpoint totals (sent %d msgs/%d B, recv %d msgs/%d B)",
				ep.Node, a.msgsSent, a.bytesSent, a.msgsRecv, a.bytesRecv,
				ep.MsgsSent, ep.BytesSent, ep.MsgsReceived, ep.BytesReceived)
		}
		for _, k := range ep.ByKind {
			got := a.byKind[k.Kind]
			if got.MsgsSent != k.MsgsSent || got.MsgsReceived != k.MsgsReceived ||
				got.BytesSent != k.BytesSent || got.BytesReceived != k.BytesReceived {
				return fmt.Errorf("metrics: node %d kind %d (%s): pass sums %+v != endpoint totals %+v",
					ep.Node, k.Kind, k.Name, got, k)
			}
		}
	}
	return nil
}

// BarrierWaitSkew summarizes the per-node barrier-wait distribution — high
// max/mean means one straggler held the whole cluster at the pass barrier.
func (p *PassStats) BarrierWaitSkew() Skew {
	vals := make([]float64, len(p.Nodes))
	for i, n := range p.Nodes {
		vals[i] = float64(n.BarrierWait)
	}
	return Summarize(vals)
}
