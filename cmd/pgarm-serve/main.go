// Command pgarm-serve answers recommendation queries over a mined model
// snapshot (produced by `pgarm-mine ... -o model.pgarm`). It is the serving
// half of the system: the mining side turns transactions into generalized
// rules, this process turns baskets into ranked, taxonomy-aware, top-K
// recommendations under concurrent load.
//
//	pgarm-mine -dataset R30F5 -scale 0.002 -minsup 0.01 -minconf 0.3 -o /tmp/model.pgarm -quiet
//	pgarm-serve -model /tmp/model.pgarm -addr :8080
//	curl -s localhost:8080/v1/recommend -d '{"basket":[1034,2207],"k":5}'
//
// Endpoints:
//
//	POST /v1/recommend  {"basket":[...],"k":5}  → ranked recommendations
//	GET  /v1/rules?limit=&offset=&root=         → rule listing
//	POST /reload[?model=path]                   → hot-swap a new snapshot
//	GET  /healthz                               → snapshot identity + health
//	GET  /metrics                               → Prometheus text exposition
//
// Reloads (POST /reload or SIGHUP) build the new index off to the side and
// swap it in atomically: in-flight requests finish on the snapshot they
// started with, new requests see the new one, and a failed reload keeps the
// old snapshot serving.
package main

import (
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pgarm/internal/logx"
	"pgarm/internal/obs"
	"pgarm/internal/obshttp"
	"pgarm/internal/serve"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model snapshot to serve (from pgarm-mine -o)")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		topK      = flag.Int("topk", 10, "default recommendation count when a query omits k")
		maxK      = flag.Int("maxk", 100, "upper bound on per-query k")
		cacheSize = flag.Int("cache", 4096, "recommendation cache entries (0 = caching off)")
		logOpts   = logx.Flags()
	)
	flag.Parse()
	logger := logOpts.Init("pgarm-serve")
	if *modelPath == "" {
		logx.Fatal(logger, "missing -model snapshot (mine one with `pgarm-mine ... -o model.pgarm`)")
	}

	start := time.Now()
	ix, err := serve.LoadFile(*modelPath)
	if err != nil {
		logx.Fatal(logger, "model load failed", "path", *modelPath, "err", err)
	}
	meta := ix.Meta()
	logger.Info("loaded model",
		"path", *modelPath, "snapshot", ix.Version(), "rules", len(ix.Rules()),
		"items", ix.Taxonomy().NumItems(), "dataset", meta.Dataset,
		"algorithm", meta.Algorithm, "minsup", meta.MinSupport, "minconf", meta.MinConfidence,
		"elapsed", time.Since(start).Round(time.Millisecond))

	reg := obs.NewRegistry()
	srv := serve.NewServer(serve.NewHolder(ix), serve.NewCache(*cacheSize), serve.ServerOptions{
		DefaultK:  *topK,
		MaxK:      *maxK,
		ModelPath: *modelPath,
		Registry:  reg,
	})

	// SIGHUP re-reads -model in place — the operational hot-swap path when
	// a fresh mining run overwrote the snapshot file (WriteFile renames
	// atomically, so the reload never sees a half-written file).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.ReloadFile(""); err != nil {
				logger.Error("SIGHUP reload failed (previous snapshot still serving)", "err", err)
				continue
			}
			cur := srv.Holder().Get()
			logger.Info("SIGHUP reload", "snapshot", cur.Version(), "rules", len(cur.Rules()))
		}
	}()

	logger.Info("serving", "addr", *addr,
		"endpoints", "POST /v1/recommend, GET /v1/rules, POST /reload, /healthz, /metrics")
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: obshttp.ReadHeaderTimeout}
	if err := hs.ListenAndServe(); err != nil {
		logx.Fatal(logger, "http server failed", "err", err)
	}
}
