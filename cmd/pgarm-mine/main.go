// Command pgarm-mine runs one parallel mining job and prints the results
// and per-pass statistics.
//
// It mines generalized association rules: the transaction source is either
// generated on the fly (-scale) or loaded from files produced by pgarm-gen
// (-in, comma-separated), with the classification hierarchy reconstructed
// deterministically from the dataset configuration.
//
// -engine selects the miner family (internal/engines): the six candidate-
// based algorithms of the paper (default H-HPGM-FGD), or FPG — the
// taxonomy-aware parallel FP-Growth engine (internal/fpg), bit-identical
// output at any node and worker count.
//
// With -rules the run continues past itemset mining into rule derivation
// (internal/rules) at the -minconf threshold; with -o the complete mined
// model — taxonomy, large itemsets, rules, generation metadata — is written
// as a snapshot file that pgarm-serve can serve and hot-swap.
//
// With -http the process serves the same live telemetry surface pgarm-worker
// has while mining: Prometheus /metrics, JSON /healthz, /debug/cluster (live
// pass/progress/skew introspection over the in-process cluster) and the
// standard /debug/pprof endpoints.
//
// With -follow the process instead tails a stream log written by pgarm-ingest
// and mines FUP-style incremental checkpoints (internal/stream): each
// -delta-txns new transactions trigger a delta pass whose result is
// bit-identical to a full batch re-mine, written to -o with carry-forward
// state, and optionally announced to a pgarm-serve instance via -reload-url.
//
// Examples:
//
//	pgarm-mine -engine H-HPGM-FGD -dataset R30F5 -scale 0.005 -nodes 8 -minsup 0.005
//	pgarm-mine -engine FPG -dataset R30F5 -scale 0.005 -nodes 4 -minsup 0.003
//	pgarm-mine -engine HPGM -dataset R30F5 -in /tmp/r30f5.n00.ptx,/tmp/r30f5.n01.ptx -minsup 0.01 -rules -minconf 0.6
//	pgarm-mine -dataset R30F5 -scale 0.002 -minsup 0.01 -minconf 0.3 -o /tmp/model.pgarm -quiet
//	pgarm-mine -follow -log /tmp/stream -dataset R30F5 -minsup 0.01 -delta-txns 2000 -o /tmp/model.pgarm -reload-url http://localhost:8080/reload
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"time"

	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/logx"
	"pgarm/internal/model"
	"pgarm/internal/obs"
	"pgarm/internal/obshttp"
	"pgarm/internal/profiling"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// deriveRules is the rules step of batch mining and of every -follow
// checkpoint: rules at minconf over numTxns transactions, then, when r > 0,
// the R-interestingness filter, logging how many rules it pruned. Exits on
// a derivation error.
func deriveRules(logger *slog.Logger, tax *taxonomy.Taxonomy, levels *itemset.Levels, numTxns int, minconf, r float64) []rules.Rule {
	support := levels.SupportIndex()
	rs, err := rules.Derive(tax, levels.All(), support, rules.Config{MinConfidence: minconf, NumTxns: numTxns})
	if err != nil {
		logx.Fatal(logger, "rule derivation failed", "err", err)
	}
	if r > 0 {
		before := len(rs)
		rs = rules.Prune(tax, rs, support, r)
		logger.Info("R-interestingness pruned rules", "r", r, "pruned", before-len(rs), "before", before)
	}
	return rs
}

// observe wires the run's observability into spec: a tracer when -trace is
// set, and with -http a registry plus cluster view served on the shared
// observability surface (obshttp). There is no fabric endpoint to expose (the
// nodes talk over channels or loopback inside this process), but live registry
// metrics and the cluster view are there. Exits on a bad listen address, logs
// and keeps mining on anything later.
func observe(spec *engines.Spec, traceOut, httpAddr string, nodes int, logger *slog.Logger) {
	if traceOut != "" {
		spec.Tracer = obs.NewTracer()
	}
	if httpAddr == "" {
		return
	}
	spec.Registry = obs.NewRegistry()
	spec.View = &driver.ClusterView{}
	mux := obshttp.NewMux(obshttp.Config{
		Nodes:     nodes,
		Algorithm: string(spec.Algorithm),
		Registry:  spec.Registry,
		Cluster:   spec.View,
		Log:       logger,
	})
	bound, err := obshttp.Serve(httpAddr, mux, logger)
	if err != nil {
		logx.Fatal(logger, "telemetry listen failed", "addr", httpAddr, "err", err)
	}
	logger.Info("telemetry serving", "addr", bound,
		"endpoints", "/metrics /healthz /debug/cluster /debug/pprof")
}

func main() {
	var (
		engName  = flag.String("engine", string(core.HHPGMFGD), "mining engine: "+engines.Names()+" (FPG = pattern growth, no candidate sets)")
		dataset  = flag.String("dataset", "R30F5", "dataset configuration (defines the hierarchy): R30F5, R30F3 or R30F10")
		scale    = flag.Float64("scale", 0.005, "generate this fraction of the paper dataset (ignored with -in)")
		seed     = flag.Int64("seed", 1998, "generator seed (ignored with -in)")
		inFiles  = flag.String("in", "", "comma-separated per-node transaction files from pgarm-gen")
		nodes    = flag.Int("nodes", 8, "cluster size (ignored with -in: one node per file)")
		minsup   = flag.Float64("minsup", 0.005, "minimum support as a fraction (0.005 = 0.5%)")
		rulesOn  = flag.Bool("rules", false, "derive and print rules after mining")
		minconf  = flag.Float64("minconf", 0.5, "minimum confidence for rule derivation (-rules / -o)")
		interest = flag.Float64("interest", 0, "R-interestingness prune factor, e.g. 1.1 (0 = keep all rules)")
		outModel = flag.String("o", "", "write the mined model (taxonomy, itemsets, rules, metadata) to this snapshot file")
		budget   = flag.Int64("budget", 0, "per-node candidate memory budget in bytes (0 = unlimited)")
		maxK     = flag.Int("maxk", 0, "stop after this pass (0 = run to completion)")
		tcp      = flag.Bool("tcp", false, "run the nodes over loopback TCP instead of channels")
		quiet    = flag.Bool("quiet", false, "suppress the itemset listing, print stats only")
		topN     = flag.Int("top", 25, "how many itemsets/rules to list per section")
		workers  = flag.Int("workers", 0, "scan workers per node (0 or 1 = scan on the node goroutine)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz, /debug/cluster and /debug/pprof on this address")

		follow    = flag.Bool("follow", false, "tail a stream log (-log) and mine incremental checkpoints into -o")
		streamLog = flag.String("log", "", "-follow: stream log directory written by pgarm-ingest")
		deltaTxns = flag.Int("delta-txns", 5000, "-follow: mine a checkpoint once this many new transactions arrived")
		poll      = flag.Duration("poll", 200*time.Millisecond, "-follow: log polling interval")
		idleMine  = flag.Duration("idle", 2*time.Second, "-follow: mine a partial delta after this much stream silence")
		maxDeltas = flag.Int("max-deltas", 0, "-follow: exit after this many checkpoints (0 = follow forever)")
		reloadURL = flag.String("reload-url", "", "-follow: POST here after each snapshot (pgarm-serve /reload)")

		logOpts = logx.Flags()
	)
	flag.Parse()
	logger := logOpts.Init("pgarm-mine")

	// Each mode rejects the other mode's flags by name instead of dropping
	// them silently.
	misplaced, why := []string{"engine", "in", "scale", "seed", "nodes", "tcp", "budget", "rules", "top", "quiet", "trace", "http"},
		"applies to batch mining, not -follow"
	if !*follow {
		misplaced, why = []string{"log", "delta-txns", "poll", "idle", "max-deltas", "reload-url"}, "applies only with -follow"
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(misplaced, f.Name) {
			logx.Fatal(logger, "-"+f.Name+" "+why)
		}
	})

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		logx.Fatal(logger, "profiling", "err", err)
	}
	defer stopProf()

	// One run description; the engine validates it.
	spec := engines.Spec{
		MinSupport:   *minsup,
		MaxK:         *maxK,
		Workers:      *workers,
		MemoryBudget: *budget,
	}
	if *tcp {
		spec.Fabric = driver.FabricTCP
	}

	if *follow {
		followStream(logger, followOptions{
			logDir:    *streamLog,
			dataset:   *dataset,
			out:       *outModel,
			minsup:    *minsup,
			minconf:   *minconf,
			interest:  *interest,
			maxK:      *maxK,
			workers:   *workers,
			deltaTxns: *deltaTxns,
			poll:      *poll,
			idle:      *idleMine,
			maxDeltas: *maxDeltas,
			reloadURL: *reloadURL,
		})
		return
	}
	spec.Algorithm, err = engines.Parse(*engName)
	if err != nil {
		logx.Fatal(logger, "bad engine", "err", err)
	}
	params, err := gen.ByName(*dataset)
	if err != nil {
		logx.Fatal(logger, "bad dataset", "err", err)
	}

	var tax *taxonomy.Taxonomy
	var parts []txn.Scanner
	if *inFiles != "" {
		tax, err = taxonomy.Balanced(params.NumItems, params.Roots, params.Fanout)
		if err != nil {
			logx.Fatal(logger, "taxonomy", "err", err)
		}
		for _, path := range strings.Split(*inFiles, ",") {
			// The magic is sniffed, so row and columnar partitions (and
			// mixtures) all work; columnar ones scan block-sharded and carry
			// the fingerprint of the hierarchy they were generated for.
			f, err := txn.OpenChecked(strings.TrimSpace(path), tax)
			if err != nil {
				logx.Fatal(logger, "open partition", "err", err)
			}
			parts = append(parts, f)
		}
	} else {
		params = params.Scaled(*scale)
		params.Seed = *seed
		logger.Info("generating dataset", "dataset", params.Name, "txns", params.NumTxns)
		ds, err := gen.Generate(params)
		if err != nil {
			logx.Fatal(logger, "generate", "err", err)
		}
		tax = ds.Taxonomy
		for _, p := range txn.Partition(ds.DB, *nodes) {
			parts = append(parts, p)
		}
	}

	observe(&spec, *traceOut, *httpAddr, len(parts), logger)
	logger.Info("mining", "engine", string(spec.Algorithm), "nodes", len(parts), "minsup", *minsup)

	// Every engine produces the same result shape — large itemsets with exact
	// counts in canonical order plus run stats — so everything downstream
	// (listing, rule derivation, model snapshots) is engine-agnostic.
	res, err := engines.Run(tax, parts, spec)
	if err != nil {
		logx.Fatal(logger, "mining failed", "err", err)
	}
	large, stats := res.Large, res.Stats
	stats.Dataset = params.Name
	if spec.Tracer != nil {
		if err := obs.WriteTraceFile(*traceOut, spec.Tracer, logger); err != nil {
			logx.Fatal(logger, "trace write failed", "err", err)
		}
	}

	fmt.Print(stats.String())
	if !*quiet {
		for k := 1; k <= len(large); k++ {
			lk := large[k-1]
			fmt.Printf("\nL_%d: %d itemsets", k, len(lk))
			if k == 1 {
				fmt.Println()
				continue
			}
			fmt.Println(":")
			for i, c := range lk {
				if i >= *topN {
					fmt.Printf("  ... %d more\n", len(lk)-i)
					break
				}
				fmt.Printf("  %s  sup_cou=%d\n", item.Format(c.Items), c.Count)
			}
		}
	}

	if *rulesOn || *outModel != "" {
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		rs := deriveRules(logger, tax, &res.Levels, total, *minconf, *interest)
		if *rulesOn {
			fmt.Printf("\n%d rules at confidence >= %.0f%%:\n", len(rs), *minconf*100)
			for i, r := range rs {
				if i >= *topN {
					fmt.Printf("  ... %d more\n", len(rs)-i)
					break
				}
				fmt.Printf("  %s\n", r)
			}
		}
		if *outModel != "" {
			var granule string
			if fp := stats.FinalPlan(); fp != nil {
				granule = fp.Granule
			}
			m := &model.Model{
				Meta: model.Meta{
					Dataset:       params.Name,
					Algorithm:     string(spec.Algorithm),
					Tool:          model.ToolVersion,
					NumTxns:       int64(total),
					MinSupport:    *minsup,
					MinConfidence: *minconf,
					CreatedUnix:   time.Now().Unix(),
					Granules:      granule,
				},
				Taxonomy: tax,
				Large:    large,
				Rules:    rs,
			}
			if err := model.WriteFile(*outModel, m); err != nil {
				logx.Fatal(logger, "model write failed", "err", err)
			}
			logger.Info("wrote model snapshot", "path", *outModel,
				"itemsets", m.NumItemsets(), "rules", len(m.Rules))
		}
	}
}
