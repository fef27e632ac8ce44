package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the declarations the
// benchmark emits from: same workloads, same metric names, units and
// directions, in the same order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayerDefs))
	}
	seen := make(map[string]bool)
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs all four workloads, untraced and traced, at smoke size.
func TestSmoke(t *testing.T) {
	outDir := t.TempDir()
	b := smokeBudget()
	for i := range workloads {
		w := &workloads[i]
		e2e, err := w.run(outDir, b, 1998, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkRun(t, w.Name, e2e, endToEndDefs)
		for name, m := range e2e.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, m.Value)
			}
		}

		layers, err := w.run(outDir, b, 1998, true)
		if err != nil {
			t.Fatalf("%s (traced): %v", w.Name, err)
		}
		checkRun(t, w.Name+" (traced)", layers, perLayerDefs)
		// The layers every workload executes must have measured something.
		for _, name := range []string{"gen.generate_s", "gen.txns", "taxonomy.extend_s", "wire.bytes", "rules.derive_s",
			"model.write_s", "model.itemsets", "serve.recommend_us", "serve.rules", "cluster.tcp_mb_per_s"} {
			if layers.Metrics[name].Value <= 0 {
				t.Errorf("%s: per-layer metric %s = %g, want > 0", w.Name, name, layers.Metrics[name].Value)
			}
		}
		if len(layers.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.Name)
		}
		checkTrace(t, filepath.Join(outDir, w.Name+".trace.json"))
	}
}

// checkRun asserts a run failed nothing and emitted exactly the declared
// metrics, each under a well-formed name with the declared unit.
func checkRun(t *testing.T, name string, res *runResult, defs []metricDef) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Errors)
	}
	declared := make(map[string]string)
	for _, d := range defs {
		declared[d.Name] = d.Unit
	}
	for n, m := range res.Metrics {
		unit, ok := declared[n]
		if !ok {
			t.Errorf("%s: undeclared metric %q emitted", name, n)
		}
		if !metricName.MatchString(n) {
			t.Errorf("%s: malformed metric name %q", name, n)
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", name, n, m.Unit, unit)
		}
		delete(declared, n)
	}
	for n := range declared {
		t.Errorf("%s: declared metric %q not emitted", name, n)
	}
}

// checkTrace asserts the trace file parses and that spans sharing a parent
// on one lane do not overlap: self time would be meaningless otherwise.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("%s: no events", path)
	}
	type key struct {
		parent float64
		lane   int
	}
	siblings := make(map[key][]traceEvent)
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["run"] == "" {
			t.Fatalf("%s: malformed event %+v", path, e)
		}
		k := key{parent: e.Args["parent"].(float64), lane: e.Tid}
		siblings[k] = append(siblings[k], e)
	}
	for k, evs := range siblings {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 1; i < len(evs); i++ {
			// Timestamps are microseconds rounded from nanoseconds.
			if evs[i].Ts < evs[i-1].Ts+evs[i-1].Dur-0.002 {
				t.Errorf("%s: sibling spans %q and %q under parent %v overlap", path, evs[i-1].Name, evs[i].Name, k.parent)
			}
		}
	}
}
