// Command pgarm-bench regenerates the paper's evaluation tables and
// figures (§4) on scaled versions of the Table 5 datasets, plus the [SK98]
// sequence-miner sweep that extends them. The repo's performance numbers —
// serving, scanning, streaming, engine family against engine family — come
// from the pipeline benchmark in bench/, not from here.
//
// Usage:
//
//	pgarm-bench -experiment table6
//	pgarm-bench -experiment fig14 -scale 0.02 -nodes 16
//	pgarm-bench -experiment all -scale 0.01 | tee results.txt
//	pgarm-bench -experiment table6 -scale 0.002 -trace trace.json -json report.json
//	pgarm-bench -experiment seq -nodes 8 -json seq.json
//
// -trace writes a Chrome trace_event file (load it in chrome://tracing or
// https://ui.perfetto.dev) covering every mining run; -json writes a
// machine-readable report with per-run, per-pass and per-node statistics,
// per-message-kind byte breakdowns and span rollups.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"strconv"
	"strings"

	"pgarm/internal/driver"
	"pgarm/internal/experiment"
	"pgarm/internal/logx"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/profiling"
)

// logger is the process logger; set in main before any experiment runs.
var logger *slog.Logger

// benchReport is the top-level -json document: one report per mining run the
// selected experiments executed.
type benchReport struct {
	Experiment string           `json:"experiment"`
	Scale      float64          `json:"scale"`
	Nodes      int              `json:"nodes"`
	Reports    []metrics.Report `json:"reports"`
	// Spans holds the span rollups when -trace was on.
	Spans []obs.Rollup `json:"spans,omitempty"`
}

func main() {
	def := experiment.Defaults()
	var (
		exp      = flag.String("experiment", "all", "table5, table6, fig13, fig14, fig15, fig16, seq or all")
		scale    = flag.Float64("scale", def.Scale, "fraction of the paper's 3.2M transactions")
		nodes    = flag.Int("nodes", def.Nodes, "cluster size for the fixed-size experiments")
		budget   = flag.Int64("budget", 0, "per-node memory budget in bytes (0 = auto-derived)")
		minsups  = flag.String("minsups", "", "comma-separated support sweep, e.g. 0.02,0.01,0.005,0.003")
		tcp      = flag.Bool("tcp", false, "run the nodes over loopback TCP")
		workers  = flag.Int("workers", 0, "scan workers per node (0 or 1 = scan on the node goroutine)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file covering every run")
		jsonOut  = flag.String("json", "", "write a machine-readable run report to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		logOpts  = logx.Flags()
	)
	flag.Parse()
	logger = logOpts.Init("pgarm-bench")

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		logx.Fatal(logger, "profiling", "err", err)
	}
	defer stopProf()

	opt := def
	opt.Scale = *scale
	opt.Nodes = *nodes
	opt.Budget = *budget
	opt.Workers = *workers
	if *tcp {
		opt.Fabric = driver.FabricTCP
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		opt.Tracer = tracer
	}
	if *minsups != "" {
		opt.MinSups = nil
		for _, s := range strings.Split(*minsups, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				logx.Fatal(logger, "bad -minsups entry", "entry", s, "err", err)
			}
			opt.MinSups = append(opt.MinSups, v)
		}
	}
	env, err := experiment.NewEnv(opt)
	if err != nil {
		logx.Fatal(logger, "experiment env", "err", err)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table5") {
		ran = true
		fmt.Println(env.Table5().Render())
	}
	if want("table6") {
		ran = true
		step("Table 6")
		t, err := env.Table6()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		fmt.Println(t.Render())
	}
	if want("fig13") {
		ran = true
		step("Figure 13")
		ts, err := env.Fig13()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		for _, t := range ts {
			fmt.Println(t.Render())
		}
	}
	if want("fig14") {
		ran = true
		step("Figure 14")
		ts, err := env.Fig14()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		for _, t := range ts {
			fmt.Println(t.Render())
		}
	}
	if want("fig15") {
		ran = true
		step("Figure 15")
		t, charts, err := env.Fig15()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		fmt.Println(t.Render())
		for _, alg := range []string{"H-HPGM", "H-HPGM-TGD", "H-HPGM-PGD", "H-HPGM-FGD"} {
			fmt.Printf("%s probes per node:\n%s\n", alg, charts[alg])
		}
	}
	if want("fig16") {
		ran = true
		step("Figure 16")
		ts, err := env.Fig16()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		for _, t := range ts {
			fmt.Println(t.Render())
		}
	}
	if want("seq") {
		ran = true
		step("sequence sweep")
		t, err := env.SeqSweep()
		if err != nil {
			logx.Fatal(logger, "experiment failed", "err", err)
		}
		fmt.Println(t.Render())
	}
	if !ran {
		logx.Fatal(logger, "unknown experiment", "experiment", *exp)
	}

	if tracer != nil {
		if err := obs.WriteTraceFile(*traceOut, tracer, logger); err != nil {
			logx.Fatal(logger, "trace write failed", "err", err)
		}
	}
	if *jsonOut != "" {
		rep := benchReport{
			Experiment: *exp,
			Scale:      *scale,
			Nodes:      *nodes,
			Spans:      tracer.Rollups(),
		}
		for _, rs := range env.Runs() {
			rep.Reports = append(rep.Reports, metrics.BuildReport(rs, nil))
		}
		if err := obs.WriteJSONFile(*jsonOut, &rep); err != nil {
			logx.Fatal(logger, "report write failed", "err", err)
		}
		logger.Info("wrote run reports", "reports", len(rep.Reports), "path", *jsonOut)
	}
}

func step(name string) {
	logger.Info("running experiment", "name", name)
}
