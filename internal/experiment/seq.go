package experiment

import (
	"fmt"

	"pgarm/internal/engines"
	"pgarm/internal/seq"
	"pgarm/internal/taxonomy"
)

// seqMinSup is the fixed support of the sequence sweep. Customer-sequence
// supports sit far above basket-itemset supports (a woven pattern reaches a
// large fraction of its customers), so the itemset sweep's 0.3% point would
// drown the run in candidates.
const seqMinSup = 0.05

// SeqSweep runs the three [SK98] parallel sequence miners over one generated
// customer-sequence database and compares their count-support communication:
// NPSPM ships nothing (replicated candidates), SPSPM broadcasts every closed
// customer sequence N-1 times, HPSPM ships each owner only the items its
// candidates can use. All three produce bit-identical frequent patterns.
func (e *Env) SeqSweep() (*Table, error) {
	tax, err := taxonomy.Balanced(300, 5, 4)
	if err != nil {
		return nil, err
	}
	p := seq.DefaultGenParams()
	// The itemset experiments scale the paper's 3.2M transactions; the
	// sequence generator's natural unit is customers, scaled off a 200k base
	// so the default 1% harness scale yields 2000 customers.
	p.NumCustomers = int(200000 * e.opt.Scale)
	if p.NumCustomers < 100 {
		p.NumCustomers = 100
	}
	db := seq.GenerateSequences(tax, p)
	parts := seq.Partition(db, e.opt.Nodes)

	t := &Table{
		Title:  fmt.Sprintf("Sequence miners ([SK98]), %d customers, %d nodes, minsup %g", db.Len(), e.opt.Nodes, seqMinSup),
		Header: []string{"algorithm", "patterns", "items sent", "data MB sent", "elapsed"},
		Notes: []string{
			"items/bytes cover the count-support passes (k >= 2); pass 1 is a dense reduce for all three",
			"NPSPM replicates candidates (no data movement); HPSPM routes by candidate root vector, SPSPM broadcasts whole sequences",
		},
	}
	var spspmBytes, hpspmBytes float64
	for _, alg := range seq.Algorithms() {
		res, err := seq.MineParallel(tax, parts, engines.Spec{
			Algorithm:  alg,
			MinSupport: seqMinSup,
			MaxK:       3,
			Workers:    e.opt.Workers,
			Fabric:     e.opt.Fabric,
			Tracer:     e.opt.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %d nodes: %w", alg, e.opt.Nodes, err)
		}
		res.Stats.Dataset = fmt.Sprintf("SEQ-C%d", db.Len())
		e.runs = append(e.runs, res.Stats)

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
		switch alg {
		case seq.SPSPM:
			spspmBytes = float64(bytes)
		case seq.HPSPM:
			hpspmBytes = float64(bytes)
		}
		t.AddRow(string(alg), fmt.Sprint(len(res.All())), fmt.Sprint(items),
			fmtMB(float64(bytes)), fmtDuration(res.Stats.Elapsed))
	}
	if spspmBytes > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("HPSPM moved %.1f%% of SPSPM's count-support bytes", 100*hpspmBytes/spspmBytes))
	}
	return t, nil
}
