package experiment

import (
	"fmt"
	"sort"
	"time"

	"pgarm/internal/core"
	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/txn"
)

// Options parameterize a harness run. The zero value is not usable; start
// from Defaults.
type Options struct {
	// Scale multiplies the paper's 3.2M-transaction datasets; experiments
	// keep item universe and pattern pool fixed so frequency shape is
	// preserved.
	Scale float64
	// Nodes is the cluster size for the fixed-size experiments (the paper
	// uses 16).
	Nodes int
	// MinSups is the minimum-support sweep for Figures 13/14, descending.
	MinSups []float64
	// PointMinSup is the fixed support of Table 6 and Figure 15 (the paper
	// uses 0.3%); override at very small scales where 0.3% sits below the
	// noise floor.
	PointMinSup float64
	// Fig16MinSups are the speedup experiment's support levels (the paper
	// uses 0.5% and 0.3%).
	Fig16MinSups []float64
	// Budget is the per-node candidate memory in bytes; 0 derives one from
	// the candidate volume at the smallest swept support so that NPGM
	// fragments and TGD starves there, as on the SP-2.
	Budget int64
	// Fabric selects the interconnect (channels by default).
	Fabric driver.FabricKind
	// Workers is the per-node scan worker pool size (0 or 1 scans on the
	// node goroutine); results are identical at any setting.
	Workers int
	// Cost converts exact work counters into modeled shared-nothing time;
	// see metrics.CostModel for why wall-clock is not used on a one-box
	// reproduction.
	Cost metrics.CostModel
	// Tracer, when non-nil, records phase spans of every mining run for
	// Chrome-trace export (pgarm-bench -trace).
	Tracer *obs.Tracer
}

// Defaults returns the options used by `pgarm-bench` and the repo benches:
// a 1% scale of the paper datasets (32,000 transactions), 16 nodes and the
// paper's 0.3%–2% support range.
func Defaults() Options {
	return Options{
		Scale:        0.01,
		Nodes:        16,
		MinSups:      []float64{0.02, 0.01, 0.007, 0.005, 0.003},
		PointMinSup:  0.003,
		Fig16MinSups: []float64{0.005, 0.003},
		Cost:         metrics.DefaultCostModel(),
	}
}

// dataset bundles a generated dataset with its per-node-count partitions.
type dataset struct {
	ds    *gen.Dataset
	parts map[int][]txn.Scanner
}

// Env carries shared state (generated datasets) across the experiments of
// one harness invocation so each dataset is generated once.
type Env struct {
	opt  Options
	data map[string]*dataset
	runs []*metrics.RunStats
}

// Runs returns the stats of every mining run executed by this environment so
// far, in execution order — the raw material of `pgarm-bench -json` reports.
func (e *Env) Runs() []*metrics.RunStats { return e.runs }

// NewEnv validates options and prepares an empty environment.
func NewEnv(opt Options) (*Env, error) {
	if opt.Scale <= 0 || opt.Scale > 1 {
		return nil, fmt.Errorf("experiment: scale %g out of (0,1]", opt.Scale)
	}
	if opt.Nodes < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 nodes, got %d", opt.Nodes)
	}
	if len(opt.MinSups) == 0 {
		return nil, fmt.Errorf("experiment: empty minimum-support sweep")
	}
	if opt.PointMinSup <= 0 {
		opt.PointMinSup = 0.003
	}
	if len(opt.Fig16MinSups) == 0 {
		opt.Fig16MinSups = []float64{0.005, 0.003}
	}
	if opt.Cost == (metrics.CostModel{}) {
		opt.Cost = metrics.DefaultCostModel()
	}
	return &Env{opt: opt, data: make(map[string]*dataset)}, nil
}

// Dataset generates (or returns the cached) scaled paper dataset.
func (e *Env) Dataset(name string) (*dataset, error) {
	if d, ok := e.data[name]; ok {
		return d, nil
	}
	p, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	ds, err := gen.Generate(p.Scaled(e.opt.Scale))
	if err != nil {
		return nil, err
	}
	d := &dataset{ds: ds, parts: make(map[int][]txn.Scanner)}
	e.data[name] = d
	return d, nil
}

// Parts returns the n-way round-robin partitioning of the dataset.
func (d *dataset) Parts(n int) []txn.Scanner {
	if p, ok := d.parts[n]; ok {
		return p
	}
	raw := txn.Partition(d.ds.DB, n)
	out := make([]txn.Scanner, n)
	for i := range raw {
		out[i] = raw[i]
	}
	d.parts[n] = out
	return out
}

// run executes one mining configuration restricted to pass 2 (the paper
// evaluates pass 2; other passes behave alike, §4.2) and returns its stats.
func (e *Env) run(d *dataset, alg core.Algorithm, nodes int, minSup float64, budget int64) (*metrics.RunStats, error) {
	res, err := engines.Run(d.ds.Taxonomy, d.Parts(nodes), engines.Spec{
		Algorithm:    alg,
		MinSupport:   minSup,
		MaxK:         2,
		MemoryBudget: budget,
		Fabric:       e.opt.Fabric,
		Workers:      e.opt.Workers,
		Tracer:       e.opt.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %s, %d nodes, minsup %g: %w", alg, d.ds.Params.Name, nodes, minSup, err)
	}
	res.Stats.Dataset = d.ds.Params.Name
	e.runs = append(e.runs, res.Stats)
	return res.Stats, nil
}

// pass2 extracts the pass-2 stats or errors (a sweep point whose L1 is too
// small to form candidates would miss it).
func pass2(rs *metrics.RunStats) (*metrics.PassStats, error) {
	if ps := rs.Pass(2); ps != nil {
		return ps, nil
	}
	return nil, fmt.Errorf("%s on %s: no pass 2 (support too high for this scale)", rs.Algorithm, rs.Dataset)
}

// autoBudget derives the per-node memory byte budget: 20%% of the total
// candidate volume at the smallest swept support. That is the paper's
// stressed regime — M < |C_2| < N·M: NPGM must split C_2 into ~5 fragments
// and re-scan its local disk for each ("the disk I/O becomes prohibitively
// costly"), while the root-hash algorithms hold only |C_2|/N each and keep
// real free space whose use separates H-HPGM from its duplicating variants.
func (e *Env) autoBudget(d *dataset) (int64, error) {
	if e.opt.Budget > 0 {
		return e.opt.Budget, nil
	}
	minSup := e.opt.MinSups[0]
	for _, s := range e.opt.MinSups {
		if s < minSup {
			minSup = s
		}
	}
	n, err := candidatesAt(d, minSup)
	if err != nil {
		return 0, err
	}
	b := int64(float64(n) * float64(core.CandBytes(2)) * 0.2)
	if b < 1<<10 {
		b = 1 << 10
	}
	return b, nil
}

// candidatesAt counts |C_2| at the given support without running a full
// parallel pass.
func candidatesAt(d *dataset, minSup float64) (int, error) {
	res, err := cumulate.Mine(d.ds.Taxonomy, d.ds.DB, cumulate.Config{MinSupport: minSup, MaxK: 1})
	if err != nil {
		return 0, err
	}
	l1 := res.LargeK(1)
	// Pairs minus ancestor pairs: count exactly as candidate generation
	// does.
	n := 0
	for i := 0; i < len(l1); i++ {
		for j := i + 1; j < len(l1); j++ {
			a, b := l1[i].Items[0], l1[j].Items[0]
			if d.ds.Taxonomy.IsAncestor(a, b) || d.ds.Taxonomy.IsAncestor(b, a) {
				continue
			}
			n++
		}
	}
	return n, nil
}

// fmtDuration renders modeled times compactly.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtMB renders byte counts as MB with adaptive precision.
func fmtMB(b float64) string {
	mb := b / (1 << 20)
	switch {
	case mb >= 100:
		return fmt.Sprintf("%.0f", mb)
	case mb >= 1:
		return fmt.Sprintf("%.1f", mb)
	default:
		return fmt.Sprintf("%.3f", mb)
	}
}

// sortedCopy returns the sweep in descending order (large support first),
// matching the paper's x-axes.
func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
