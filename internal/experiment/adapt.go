package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pgarm/internal/core"
	"pgarm/internal/cumulate"
	"pgarm/internal/engines"
	"pgarm/internal/metrics"
	"pgarm/internal/txn"
)

// AdaptOptions parameterize the skew-adaptation experiment
// (`pgarm-bench -experiment adapt`). The transaction database is split into
// deliberately uneven zipf-sized partitions — the load-skew regime the
// even round-robin split of the paper experiments avoids — and mined three
// times: by the sequential reference, by the static base algorithm and with
// skew-adaptive granule escalation on. Barrier waits are real wall-clock on
// the machine running the bench; byte and item counters are exact.
type AdaptOptions struct {
	// Dataset names the Table 5 configuration to generate.
	Dataset string
	// Algorithm is the parallel base (an H-HPGM-family algorithm); adaptive
	// escalation starts from its granule.
	Algorithm core.Algorithm
	// MinSup is the support threshold. Low enough for several passes: the
	// adaptive plan needs at least three (the skew hint at pass k describes
	// pass k-2).
	MinSup float64
	// Zipf is the partition-size skew exponent: partition i receives a share
	// proportional to 1/(i+1)^Zipf. 0 disables the skew (even split).
	Zipf float64
	// EscalateAt / JumpAt override the adaptive arm's escalation thresholds
	// (0 = the core defaults, 1.25 and 4.0).
	EscalateAt float64
	JumpAt     float64
}

// AdaptDefaults returns the adapt bench configuration used by pgarm-bench.
func AdaptDefaults() AdaptOptions {
	return AdaptOptions{
		Dataset:   "R30F5",
		Algorithm: core.HHPGM,
		MinSup:    0.01,
		Zipf:      1.5,
	}
}

// Adapt runs the skew-adaptation experiment: one zipf-skewed partitioning,
// three arms (sequential reference, static, adaptive), reporting per-pass
// barrier waits, traffic and the granule map each pass ran with, plus
// bit-identity of both parallel arms against the sequential reference.
func (e *Env) Adapt(o AdaptOptions) (*Table, []metrics.AdaptReport, error) {
	if o.Dataset == "" {
		o.Dataset = "R30F5"
	}
	if o.Algorithm == "" {
		o.Algorithm = core.HHPGM
	}
	if o.MinSup <= 0 {
		o.MinSup = 0.01
	}
	d, err := e.Dataset(o.Dataset)
	if err != nil {
		return nil, nil, err
	}
	parts := zipfSplit(d.ds.DB, e.opt.Nodes, o.Zipf)

	ref, err := cumulate.Mine(d.ds.Taxonomy, d.ds.DB, cumulate.Config{MinSupport: o.MinSup})
	if err != nil {
		return nil, nil, err
	}
	reports := []metrics.AdaptReport{{
		Arm: "cumulate", Algorithm: "Cumulate", Nodes: 1, MinSup: o.MinSup,
		Identical: true,
	}}

	for _, arm := range []string{"static", "adaptive"} {
		spec := engines.Spec{
			Algorithm:  o.Algorithm,
			MinSupport: o.MinSup,
			Fabric:     e.opt.Fabric,
			Workers:    e.opt.Workers,
			Tracer:     e.opt.Tracer,
		}
		if arm == "adaptive" {
			spec.Adaptive = true
			spec.EscalateAt = o.EscalateAt
			spec.JumpAt = o.JumpAt
		}
		res, err := engines.Run(d.ds.Taxonomy, parts, spec)
		if err != nil {
			return nil, nil, fmt.Errorf("adapt arm %s: %w", arm, err)
		}
		res.Stats.Dataset = fmt.Sprintf("%s/zipf%.2g", d.ds.Params.Name, o.Zipf)
		e.runs = append(e.runs, res.Stats)

		rep := metrics.AdaptReport{
			Arm: arm, Algorithm: string(o.Algorithm), Nodes: e.opt.Nodes,
			MinSup: o.MinSup, Zipf: o.Zipf,
			FinalGranules: res.Stats.FinalPlan().GranuleMap(),
			Identical:     res.Equal(&ref.Levels),
		}
		for _, ps := range res.Stats.Passes {
			ap := metrics.AdaptPass{Pass: ps.Pass, Duplicated: ps.Duplicated}
			ap.Granule = ps.Plan.GranuleMap()
			var max, sum time.Duration
			for _, n := range ps.Nodes {
				if n.BarrierWait > max {
					max = n.BarrierWait
				}
				sum += n.BarrierWait
				ap.BytesTotal += n.BytesSent
				rep.ItemsSent += n.ItemsSent
			}
			ap.BarrierWaitMaxMS = float64(max.Microseconds()) / 1000
			if len(ps.Nodes) > 0 {
				ap.BarrierWaitMeanMS = float64(sum.Microseconds()) / 1000 / float64(len(ps.Nodes))
			}
			rep.TotalBytes += ap.BytesTotal
			rep.Passes = append(rep.Passes, ap)
		}
		reports = append(reports, rep)
	}

	t := &Table{
		Title: fmt.Sprintf("Skew adaptation (%s, %s, %d nodes, minsup %.3g%%, zipf %.2g)",
			o.Dataset, o.Algorithm, e.opt.Nodes, o.MinSup*100, o.Zipf),
		Header: []string{"arm", "pass", "granules", "dup", "wait max ms", "wait mean ms", "MB", "identical"},
	}
	for _, rep := range reports[1:] {
		for _, ap := range rep.Passes {
			t.AddRow(rep.Arm, fmt.Sprintf("%d", ap.Pass), shortGranules(ap.Granule),
				fmt.Sprintf("%d", ap.Duplicated),
				fmt.Sprintf("%.2f", ap.BarrierWaitMaxMS),
				fmt.Sprintf("%.2f", ap.BarrierWaitMeanMS),
				fmtMB(float64(ap.BytesTotal)), "")
		}
		t.AddRow(rep.Arm, "all", shortGranules(rep.FinalGranules), "", "", "",
			fmtMB(float64(rep.TotalBytes)), fmt.Sprintf("%v", rep.Identical))
	}
	t.Notes = []string{
		"partitions are zipf-sized: node 0 holds the largest share, so it straggles and peers idle at the barrier",
		"the adaptive arm escalates duplication granules per hot taxonomy subtree once the wait imbalance crosses the threshold",
		"identical: frequent itemsets and counts match the sequential Cumulate reference bit-for-bit",
	}
	return t, reports, nil
}

// shortGranules compresses a long granule map for table cells ("none + 30
// escalated roots"); the full map is in the JSON report.
func shortGranules(g string) string {
	base, rest, found := strings.Cut(g, ",")
	if !found {
		return g
	}
	n := 1 + strings.Count(rest, ",")
	if n <= 2 {
		return g
	}
	return fmt.Sprintf("%s + %d escalated roots", base, n)
}

// zipfSplit partitions the database into n contiguous slices whose sizes
// follow a zipf distribution with exponent theta (partition i's share is
// proportional to 1/(i+1)^theta); theta 0 degenerates to an even contiguous
// split. Every partition receives at least one transaction when the database
// allows it, so no node joins the protocol empty.
func zipfSplit(db *txn.DB, n int, theta float64) []txn.Scanner {
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), theta)
		wsum += weights[i]
	}
	total := db.Len()
	sizes := make([]int, n)
	used := 0
	for i := range sizes {
		sizes[i] = int(float64(total) * weights[i] / wsum)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		if used+sizes[i] > total-(n-1-i) { // leave >=1 txn per remaining node
			sizes[i] = total - (n - 1 - i) - used
			if sizes[i] < 0 {
				sizes[i] = 0
			}
		}
		used += sizes[i]
	}
	sizes[n-1] += total - used // remainder joins the last (smallest) partition

	out := make([]txn.Scanner, n)
	off := 0
	for i, sz := range sizes {
		p := &txn.DB{}
		for j := 0; j < sz; j++ {
			p.Append(db.At(off + j))
		}
		off += sz
		out[i] = p
	}
	return out
}
