package metrics

import (
	"fmt"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/obs"
)

// Report is the machine-readable form of one mining run: RunStats flattened
// into stable JSON plus span rollups from the tracer (when tracing was on).
// It is the diffable artifact `pgarm-bench -json` emits. The schema carries
// no version number: a report is a set of named sections, each present when
// that part of the run happened, and the key set is pinned by a golden test.
// A Report is written, never read back: nothing in the repo decodes one, and
// the per-node objects have only a marshaller (NodeStats.MarshalJSON), so
// json.Unmarshal into a Report loses most of each node's counters.
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
	AvgDataBytesReceived float64 `json:"avg_data_bytes_received"`
	ProbeSkew            Skew    `json:"probe_skew"`
	BarrierWaitSkew      Skew    `json:"barrier_wait_skew"`
	// Nodes are the pass windows themselves; NodeStats.MarshalJSON renders
	// each from the Counters list.
	Nodes []NodeStats `json:"nodes"`
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
			Nodes:                p.Nodes,
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
	// Pass sums per (node, kind); kind -1 is the node's aggregate window.
	type key struct{ node, kind int }
	sums := make(map[key]cluster.Traffic)
	for _, p := range r.Passes {
		for _, n := range p.Nodes {
			sums[key{n.Node, -1}] = sums[key{n.Node, -1}].Add(n.Traffic)
			for _, k := range n.ByKind {
				sums[key{n.Node, int(k.Kind)}] = sums[key{n.Node, int(k.Kind)}].Add(k.Traffic)
			}
		}
	}
	for _, ep := range r.Endpoints {
		if got := sums[key{ep.Node, -1}]; got != ep.Traffic {
			return fmt.Errorf("metrics: node %d pass sums %+v != endpoint totals %+v", ep.Node, got, ep.Traffic)
		}
		for _, k := range ep.ByKind {
			if got := sums[key{ep.Node, int(k.Kind)}]; got != k.Traffic {
				return fmt.Errorf("metrics: node %d kind %d (%s): pass sums %+v != endpoint totals %+v",
					ep.Node, k.Kind, k.Name, got, k.Traffic)
			}
		}
	}
	return nil
}
