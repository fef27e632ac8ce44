// Command bench is the repo's performance gate: four pipeline workloads,
// named end-to-end metrics measured with tracing off, named per-layer metrics
// from a separate traced run, and a correctness check on every output. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./bench                                  the whole suite -> bench/out/results.json
//	go run ./bench -sets 2                          the suite twice, with per-metric agreement
//	go run ./bench -compare A.json B.json           gate B against A with BENCHMARK.json's bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                                one run; last stdout line is the result JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (default: the whole suite)")
		seed         = flag.Int64("seed", 1998, "seed of the generated inputs and of the query mix")
		seconds      = flag.Float64("seconds", 20, "measured seconds of one untraced run")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, tracing on")
		smoke        = flag.Bool("smoke", false, "shrink every workload to the size the test suite runs")
		sets         = flag.Int("sets", 1, "run the whole suite this many times back to back, then compare each set with the first")
		compare      = flag.Bool("compare", false, "compare the two result files given as arguments; exit non-zero on a regression")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	hostRef() // first touch of the reference table is page faults, not memory latency

	root, err := repoRoot()
	if err == nil {
		b := fullBudget(*seconds)
		if *smoke {
			b = smokeBudget()
		}
		switch {
		case *compare && flag.NArg() == 2:
			err = compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout)
		case *compare:
			err = fmt.Errorf("-compare takes two result files")
		case *workloadName != "":
			err = runOne(root, *workloadName, b, *seed, *trace == 1)
		default:
			err = runSets(root, b, *seed, *smoke, *sets)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir is where run files, traces and results go; .gitignore names it.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// runOne is the acceptance driver's entry: one run of one workload, its
// result as the last line of standard output.
func runOne(root, name string, b budget, seed int64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	dir, err := outDir(root)
	if err != nil {
		return err
	}
	res, err := w.run(dir, b, seed, traced)
	if err != nil {
		return err
	}
	return printResultLine(res)
}

// runSets runs the whole suite sets times, writes one results file per set
// and compares every later set with the first.
func runSets(root string, b budget, seed int64, smoke bool, sets int) error {
	dir, err := outDir(root)
	if err != nil {
		return err
	}
	var files []string
	for set := 0; set < sets; set++ {
		res, err := runSuite(dir, b, seed, smoke)
		if err != nil {
			return err
		}
		name := "results.json"
		if sets > 1 {
			name = fmt.Sprintf("results-%c.json", 'a'+set)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		files = append(files, path)
		if res.failed() > 0 {
			return fmt.Errorf("%d operations failed", res.failed())
		}
	}
	for _, f := range files[1:] {
		if err := compareFiles(root, files[0], f, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// run executes one run of the workload: untraced for the end-to-end metrics,
// traced for the per-layer metrics and the trace file.
func (w *workload) run(outDir string, b budget, seed int64, traced bool) (*runResult, error) {
	tracePath := filepath.Join(outDir, w.Name+".trace.json")
	switch {
	case w.Engine == "" && traced:
		return w.runStreamTraced(outDir, b, seed, tracePath)
	case w.Engine == "":
		return w.runStream(outDir, b, seed)
	case traced:
		return w.runMiningTraced(outDir, b, seed, tracePath)
	default:
		return w.runMining(outDir, b, seed)
	}
}

// printResultLine prints the one-line result the acceptance driver reads.
func printResultLine(res *runResult) error {
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	for name, m := range res.Metrics {
		if m.Raw != 0 {
			fmt.Fprintf(os.Stderr, "%s: %g %s at reference host speed, %g as measured\n", name, m.Value, m.Unit, m.Raw)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for name, m := range res.Metrics {
		out.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// host is the fingerprint wall-clock numbers are only comparable within.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	// Stamped by `go build` inside a git checkout (run.sh builds that way);
	// `go run` and exported trees leave it unknown.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// suiteResults is the schema of results.json.
type suiteResults struct {
	Schema    int              `json:"schema"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Spans     []spanRollup      `json:"spans"`
}

func (s *suiteResults) failed() int {
	n := 0
	for _, w := range s.Workloads {
		n += w.Failed
	}
	return n
}

// runSuite runs every workload untraced then traced and prints every metric
// by name with its unit.
func runSuite(outDir string, b budget, seed int64, smoke bool) (*suiteResults, error) {
	out := &suiteResults{Schema: 1, Host: fingerprint(), Seed: seed, Seconds: b.Seconds, Smoke: smoke}
	for i := range workloads {
		w := &workloads[i]
		e2e, err := w.run(outDir, b, seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		layers, err := w.run(outDir, b, seed, true)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		wr := workloadResult{
			Name:      w.Name,
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			Errors:    append(e2e.Errors, layers.Errors...),
			EndToEnd:  e2e.Metrics,
			PerLayer:  layers.Metrics,
			Spans:     layers.Spans,
		}
		wr.FailShare = float64(wr.Failed) / float64(wr.Attempted)
		out.Workloads = append(out.Workloads, wr)
		printWorkload(&wr)
	}
	return out, nil
}

func printWorkload(wr *workloadResult) {
	fmt.Printf("\n== %s: %d operations, %d failed (fail_share %g)\n", wr.Name, wr.Attempted, wr.Failed, wr.FailShare)
	for _, e := range wr.Errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
	for _, d := range endToEndDefs {
		m := wr.EndToEnd[d.Name]
		fmt.Printf("  %-28s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if m.Dist != nil {
			fmt.Printf(" n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g", m.Dist.N, m.Dist.Q1, m.Dist.Q3, m.Dist.Min, m.Dist.Max)
		}
		fmt.Println()
	}
	for _, d := range perLayerDefs {
		m := wr.PerLayer[d.Name]
		exact := ""
		if d.Exact {
			exact = " (exact)"
		}
		fmt.Printf("  %-28s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, exact)
	}
	names := make([]string, 0, len(wr.Spans))
	for _, s := range wr.Spans {
		names = append(names, fmt.Sprintf("%s x%d %.3fs (self %.3fs)", s.Name, s.Count, s.TotalS, s.SelfS))
	}
	sort.Strings(names)
	fmt.Printf("  spans: %s\n", strings.Join(names, "; "))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
