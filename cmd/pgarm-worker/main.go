// Command pgarm-worker runs one shared-nothing mining node as its own OS
// process, joining a full TCP mesh with its peers — the closest deployment
// shape to the paper's 16-node SP-2 that a collection of machines (or one
// machine with N processes) can offer.
//
// Start one worker per node, all with the same -addrs list and mining
// parameters; workers may start in any order. Node 0 is the coordinator and
// prints the result.
//
//	pgarm-gen -dataset R30F5 -scale 0.002 -nodes 3 -out /tmp/r
//	pgarm-worker -node 0 -addrs :7001,:7002,:7003 -in /tmp/r.n00.ptx -minsup 0.01 &
//	pgarm-worker -node 1 -addrs :7001,:7002,:7003 -in /tmp/r.n01.ptx -minsup 0.01 &
//	pgarm-worker -node 2 -addrs :7001,:7002,:7003 -in /tmp/r.n02.ptx -minsup 0.01
//
// With -http each worker serves live telemetry while mining: /metrics
// (Prometheus text exposition: mining counters plus live fabric byte/message
// gauges), /healthz (JSON with the current pass and fabric health),
// /debug/cluster (live run introspection: current pass, per-node progress and
// lag, latest skew snapshot — cluster-wide on the coordinator, local
// elsewhere) and the standard /debug/pprof endpoints.
//
// With -trace on every worker, each node records its phase spans; workers
// ship theirs to the coordinator at each pass barrier over the telemetry
// plane, so node 0's trace file is the merged cluster trace — every node's
// spans on its own track group, remote timestamps rebased into the
// coordinator's clock using the offsets estimated during the mesh handshake.
// -json writes the machine-readable run report (on the coordinator it covers
// the whole cluster, including the per-pass skew section). If a peer process
// dies mid-run, the remaining workers exit non-zero with the lost peer named
// instead of hanging.
//
// -engine selects the miner family: any of the six candidate engines or FPG,
// the taxonomy-aware parallel FP-Growth engine; it must match on every
// worker. With -verify (a comma-separated list of EVERY node's partition
// file) the coordinator additionally re-mines the whole database with the
// sequential Cumulate reference after the parallel run and embeds an
// "identical" bit-identity verdict in its -json report — the smoke check CI
// asserts over a real process mesh.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/logx"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/obshttp"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

func main() {
	var (
		nodeID   = flag.Int("node", -1, "this worker's node id (0 = coordinator)")
		addrs    = flag.String("addrs", "", "comma-separated listen addresses of every node, in id order")
		inFile   = flag.String("in", "", "this node's transaction partition (from pgarm-gen -nodes)")
		dataset  = flag.String("dataset", "R30F5", "dataset configuration defining the hierarchy")
		algName  = flag.String("algorithm", "", "older spelling of -engine (default H-HPGM-FGD)")
		engName  = flag.String("engine", "", "mining engine: "+engines.Names()+" (must match on every worker)")
		minsup   = flag.Float64("minsup", 0.005, "minimum support fraction")
		budget   = flag.Int64("budget", 0, "per-node candidate memory budget in bytes")
		adaptive = flag.Bool("adaptive", false, "H-HPGM family: escalate duplication granules per hot taxonomy subtree from observed barrier skew (must match on every worker)")
		maxK     = flag.Int("maxk", 0, "stop after this pass (0 = completion)")
		workers  = flag.Int("workers", 0, "scan workers on this node (0 or 1 = scan on the node goroutine)")
		verify   = flag.String("verify", "", "coordinator: comma-separated partition files of EVERY node; re-mine sequentially after the run and report bit-identity in -json")
		timeout  = flag.Duration("dial-timeout", 30*time.Second, "how long to wait for peers to come up")
		topN     = flag.Int("top", 20, "itemsets to list per level (coordinator)")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz, /debug/cluster and /debug/pprof on this address")
		traceOut = flag.String("trace", "", "write this node's Chrome trace_event JSON file on exit (node 0: merged cluster trace)")
		jsonOut  = flag.String("json", "", "write the run report JSON on exit (node 0: full cluster report with skew section)")
		logOpts  = logx.Flags()
	)
	flag.Parse()
	logger := logOpts.Init("pgarm-worker").With("node", *nodeID)

	addrList := strings.Split(*addrs, ",")
	if *nodeID < 0 || *nodeID >= len(addrList) {
		logx.Fatal(logger, "-node out of range of address list", "nodes", len(addrList))
	}
	if *inFile == "" {
		logx.Fatal(logger, "missing -in partition file")
	}
	eng, err := engines.Resolve(*engName, *algName)
	if err != nil {
		logx.Fatal(logger, "bad engine", "err", err)
	}
	params, err := gen.ByName(*dataset)
	if err != nil {
		logx.Fatal(logger, "bad dataset", "err", err)
	}
	tax, err := taxonomy.Balanced(params.NumItems, params.Roots, params.Fanout)
	if err != nil {
		logx.Fatal(logger, "taxonomy", "err", err)
	}
	local, err := txn.OpenChecked(*inFile, tax)
	if err != nil {
		logx.Fatal(logger, "open partition", "err", err)
	}

	logger.Info("joining mesh", "nodes", len(addrList))
	ep, mesh, err := cluster.DialMesh(*nodeID, addrList, cluster.MeshOptions{DialTimeout: *timeout})
	if err != nil {
		logx.Fatal(logger, "mesh dial failed", "err", err)
	}
	defer mesh.Close()

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	reg := obs.NewRegistry()
	view := &driver.ClusterView{}
	var mineDone atomic.Bool
	if *httpAddr != "" {
		mux := obshttp.NewMux(obshttp.Config{
			Node:      *nodeID,
			Nodes:     len(addrList),
			Algorithm: string(eng),
			Registry:  reg,
			Endpoint:  ep,
			Cluster:   view,
			Done:      &mineDone,
			Log:       logger,
		})
		bound, err := obshttp.Serve(*httpAddr, mux, logger)
		if err != nil {
			logx.Fatal(logger, "telemetry listen failed", "addr", *httpAddr, "err", err)
		}
		logger.Info("telemetry serving", "addr", bound,
			"endpoints", "/metrics /healthz /debug/cluster /debug/pprof")
	}

	// Progress callbacks fire on the coordinator only; followers stay quiet
	// and expose the same numbers over -http instead.
	onPassStart := func(pass, cands int) {
		logger.Info("pass starting", "pass", pass, "k", pass, "candidates", cands)
	}
	onPass := func(p driver.PassProgress) {
		logger.Info("pass done",
			"pass", p.Pass, "k", p.Pass, "candidates", p.Candidates, "large", p.Large,
			"elapsed", p.Elapsed.Round(time.Millisecond),
			"bytes_in", p.BytesIn, "bytes_out", p.BytesOut)
	}
	logger.Info("mining", "engine", string(eng), "txns", local.Len(), "minsup", *minsup)
	res, err := engines.RunWorker(tax, local, engines.Spec{
		Algorithm:    eng,
		MinSupport:   *minsup,
		MaxK:         *maxK,
		MemoryBudget: *budget,
		Workers:      *workers,
		Adaptive:     *adaptive,
		Tracer:       tracer,
		Registry:     reg,
		View:         view,
		OnPassStart:  onPassStart,
		OnPass:       onPass,
	}, ep)
	mineDone.Store(true)
	if err != nil {
		fatalMineErr(logger, ep, err)
	}
	large, stats := res.Large, res.Stats

	if tracer != nil {
		if werr := obs.WriteTraceFile(*traceOut, tracer, logger); werr != nil {
			logx.Fatal(logger, "trace write failed", "err", werr)
		}
	}
	// -verify: the coordinator re-mines the WHOLE database (every node's
	// partition, as listed) with the sequential Cumulate reference and embeds
	// the bit-identity verdict in its report — the cross-process analogue of
	// the in-process identity sweeps.
	verified := false
	identical := false
	if *verify != "" && *nodeID == 0 {
		identical, err = verifyIdentity(tax, *verify, *minsup, *maxK, &res.Levels)
		if err != nil {
			logx.Fatal(logger, "verification failed", "err", err)
		}
		verified = true
		logger.Info("verified against sequential reference", "identical", identical)
	}

	if *jsonOut != "" {
		rep := metrics.BuildReport(stats, tracer)
		var doc any = &rep
		if verified {
			doc = &verifiedReport{Report: rep, Identical: identical}
		}
		if err := obs.WriteJSONFile(*jsonOut, doc); err != nil {
			logx.Fatal(logger, "report write failed", "err", err)
		}
		logger.Info("wrote report", "passes", len(rep.Passes), "path", *jsonOut)
	}

	if *nodeID == 0 {
		fmt.Print(stats.String())
		for k := 1; k <= len(large); k++ {
			lk := large[k-1]
			fmt.Printf("L_%d: %d itemsets\n", k, len(lk))
			if k == 1 {
				continue
			}
			for i, c := range lk {
				if i >= *topN {
					fmt.Printf("  ... %d more\n", len(lk)-i)
					break
				}
				fmt.Printf("  %s  sup_cou=%d\n", item.Format(c.Items), c.Count)
			}
		}
	} else {
		logger.Info("done", "large_levels", len(large))
	}
}

// verifiedReport is the -verify -json envelope: the usual run report plus the
// coordinator's bit-identity verdict, for CI to assert with jq.
type verifiedReport struct {
	metrics.Report
	Identical bool `json:"identical"`
}

// fatalMineErr exits with the most useful cause: a dead peer tears the
// endpoint down and records why — name the lost peer instead of surfacing
// only the secondary protocol error, and exit non-zero so supervisors notice.
func fatalMineErr(logger *slog.Logger, ep cluster.Endpoint, err error) {
	if ferr := ep.Err(); ferr != nil {
		logx.Fatal(logger, "aborted", "cause", ferr, "protocol_err", err)
	}
	logx.Fatal(logger, "mining failed", "err", err)
}

// verifyIdentity re-mines every listed partition sequentially with Cumulate
// and compares levels, itemsets and counts against the parallel result.
func verifyIdentity(tax *taxonomy.Taxonomy, list string, minsup float64, maxK int, got *itemset.Levels) (bool, error) {
	whole := txn.NewDB(nil)
	for _, path := range strings.Split(list, ",") {
		src, err := txn.OpenChecked(strings.TrimSpace(path), tax)
		if err != nil {
			return false, err
		}
		if err := src.Scan(func(t txn.Transaction) error {
			whole.Append(txn.Transaction{TID: t.TID, Items: item.Clone(t.Items)})
			return nil
		}); err != nil {
			return false, err
		}
	}
	ref, err := cumulate.Mine(tax, whole, cumulate.Config{MinSupport: minsup, MaxK: maxK})
	if err != nil {
		return false, err
	}
	return ref.Equal(got), nil
}
