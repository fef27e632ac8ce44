package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json carries
// the same names, units and directions; the smoke test asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Exact marks a count that must repeat exactly for the same seed: the
	// deterministic regression gate -compare enforces.
	Exact bool
}

// endToEndDefs are the metrics a user of the pipeline sees, measured with
// tracing off. Every workload emits all of them. Times and the rate are at
// reference host speed (see hostref.go).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "mine_s", Unit: "s", Better: "lower"},
	{Name: "pipeline_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "recommend_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recommend_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_qps", Unit: "1/s", Better: "higher"},
}

// perLayerDefs are the single-layer metrics of the traced run; the prefix is
// the module name under internal/. A layer a workload does not execute
// reports 0.
var perLayerDefs = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.txns", Unit: "count", Better: "higher", Exact: true},

	{Name: "txn.write_s", Unit: "s", Better: "lower"},
	{Name: "txn.scan_s", Unit: "s", Better: "lower"},
	{Name: "txn.bytes_decoded", Unit: "count", Better: "lower", Exact: true},
	{Name: "txn.blocks_scanned", Unit: "count", Better: "lower", Exact: true},
	{Name: "txn.blocks_skipped", Unit: "count", Better: "higher", Exact: true},

	{Name: "taxonomy.extend_s", Unit: "s", Better: "lower"},
	{Name: "taxonomy.items_out", Unit: "count", Better: "lower", Exact: true},

	{Name: "itemset.build_index_s", Unit: "s", Better: "lower"},
	{Name: "itemset.probe_s", Unit: "s", Better: "lower"},
	{Name: "itemset.probes", Unit: "count", Better: "lower", Exact: true},

	{Name: "cumulate.generate_s", Unit: "s", Better: "lower"},
	{Name: "cumulate.candidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "cumulate.mine_s", Unit: "s", Better: "lower"},

	{Name: "core.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "core.pass1_s", Unit: "s", Better: "lower"},
	{Name: "core.pass2_s", Unit: "s", Better: "lower"},
	{Name: "core.pass3_s", Unit: "s", Better: "lower"},
	{Name: "core.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.scan_s", Unit: "s", Better: "lower"},
	{Name: "core.probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.increments", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.items_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.candidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.duplicated", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.probe_skew", Unit: "ratio", Better: "lower"},

	{Name: "fpg.pass1_s", Unit: "s", Better: "lower"},
	{Name: "fpg.pass2_s", Unit: "s", Better: "lower"},
	{Name: "fpg.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "fpg.condbase_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "fpg.build_forest_s", Unit: "s", Better: "lower"},
	{Name: "fpg.ship_bases_s", Unit: "s", Better: "lower"},
	{Name: "fpg.grow_s", Unit: "s", Better: "lower"},

	{Name: "driver.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "driver.barrier_share", Unit: "ratio", Better: "lower"},

	// Not exact: the plan broadcast carries a measured barrier-wait ratio as a
	// uvarint, so whole-fabric bytes move by a byte or two from run to run.
	{Name: "cluster.bytes_sent", Unit: "count", Better: "lower"},
	{Name: "cluster.data_bytes_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.msgs_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.chan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "wire.encode_s", Unit: "s", Better: "lower"},
	{Name: "wire.decode_s", Unit: "s", Better: "lower"},
	{Name: "wire.bytes", Unit: "count", Better: "lower", Exact: true},

	{Name: "rules.support_index_s", Unit: "s", Better: "lower"},
	{Name: "rules.derive_s", Unit: "s", Better: "lower"},
	{Name: "rules.rules_out", Unit: "count", Better: "higher", Exact: true},

	{Name: "model.encode_s", Unit: "s", Better: "lower"},
	{Name: "model.write_s", Unit: "s", Better: "lower"},
	{Name: "model.read_s", Unit: "s", Better: "lower"},
	{Name: "model.snapshot_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "model.itemsets", Unit: "count", Better: "higher", Exact: true},

	{Name: "stream.append_s", Unit: "s", Better: "lower"},
	{Name: "stream.read_s", Unit: "s", Better: "lower"},
	{Name: "stream.incremental_s", Unit: "s", Better: "lower"},
	{Name: "stream.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "stream.recount_ratio", Unit: "ratio", Better: "lower"},
	{Name: "stream.prefix_scans", Unit: "count", Better: "lower", Exact: true},
	{Name: "stream.full_mine_s", Unit: "s", Better: "lower"},

	{Name: "serve.index_build_s", Unit: "s", Better: "lower"},
	{Name: "serve.reload_s", Unit: "s", Better: "lower"},
	{Name: "serve.recommend_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.rules", Unit: "count", Better: "higher", Exact: true},

	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans", Unit: "count", Better: "lower"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},

	{Name: "metrics.costmodel_ratio_p2", Unit: "ratio", Better: "lower"},
	{Name: "metrics.costmodel_ratio_p3", Unit: "ratio", Better: "lower"},

	{Name: "gen.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "txn.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "taxonomy.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "itemset.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "cumulate.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "fpg.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "wire.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "rules.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "model.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "stream.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.alloc_mb", Unit: "MB", Better: "lower"},
}

// metric is one emitted value with the distribution behind it, when it is a
// median over several samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
	// Raw is the median as measured, for a value reported at reference host
	// speed.
	Raw float64 `json:"raw,omitempty"`
}

// metricSet collects the values of one run against a declaration list. A nil
// metricSet discards what it is given: the untraced run's set-up passes one.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (ms *metricSet) unit(name string) string {
	if ms == nil {
		return ""
	}
	for _, d := range ms.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: undeclared metric " + name) // a bug in the benchmark itself
}

// set records a single measured value.
func (ms *metricSet) set(name string, v float64) {
	ms.put(name, metric{Value: v, Unit: ms.unit(name)})
}

// setSamples records the median of samples and keeps their distribution.
func (ms *metricSet) setSamples(name string, samples []float64) {
	d := summarize(samples)
	ms.put(name, metric{Value: d.Median, Unit: ms.unit(name), Dist: &d})
}

// setAtHostSpeed records the median of samples scaled by factor, which
// brings them to reference host speed, and keeps the raw median beside it.
func (ms *metricSet) setAtHostSpeed(name string, samples []float64, factor float64) {
	scaled := make([]float64, len(samples))
	for i, v := range samples {
		scaled[i] = v * factor
	}
	d := summarize(scaled)
	ms.put(name, metric{Value: d.Median, Unit: ms.unit(name), Dist: &d, Raw: median(samples)})
}

func (ms *metricSet) put(name string, m metric) {
	if ms == nil {
		return
	}
	if _, dup := ms.values[name]; dup {
		panic("bench: metric emitted twice: " + name) // a bug in the benchmark itself
	}
	ms.values[name] = m
}

// complete fills every declared metric the run did not produce with 0: the
// layer did not execute on this workload.
func (ms *metricSet) complete() map[string]metric {
	for _, d := range ms.defs {
		if _, ok := ms.values[d.Name]; !ok {
			ms.values[d.Name] = metric{Unit: d.Unit}
		}
	}
	return ms.values
}

// benchmarkFile mirrors the BENCHMARK.json contract.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the repo root when run as `go run ./bench` or through
// run.sh, the parent of bench/ under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
