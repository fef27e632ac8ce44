// Package obshttp is the shared observability HTTP surface of the pgarm
// binaries: one private mux serving Prometheus /metrics, a JSON /healthz, the
// standard /debug/pprof endpoints and — when a cluster view is attached —
// live /debug/cluster run introspection. pgarm-worker and pgarm-mine both
// mount it so a mining process looks the same to scrapers regardless of
// deployment shape.
package obshttp

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/obs"
)

// Config assembles one process's observability surface. Registry is
// required; everything else is optional and degrades gracefully.
type Config struct {
	Node      int    // this process's node id (labels the fabric gauges)
	Nodes     int    // cluster size, reported by /healthz
	Algorithm string // mining algorithm, reported by /healthz

	// Registry backs /metrics (required).
	Registry *obs.Registry
	// Endpoint, when non-nil, adds live pgarm_fabric_* gauges to the registry
	// and surfaces fabric errors through /healthz (503 + "fabric_error").
	Endpoint cluster.Endpoint
	// Cluster, when non-nil, is mounted at /debug/cluster — normally a
	// *driver.ClusterView serving the coordinator's live run snapshot.
	Cluster http.Handler
	// Done, when non-nil, flips /healthz's "done" field when the run ends.
	Done *atomic.Bool
	// Log receives handler errors; nil uses slog.Default().
	Log *slog.Logger
}

// health is the /healthz response body.
type health struct {
	Node        int    `json:"node"`
	Nodes       int    `json:"nodes"`
	Algorithm   string `json:"algorithm"`
	Pass        int64  `json:"pass"`
	Done        bool   `json:"done"`
	FabricError string `json:"fabric_error,omitempty"`
}

// NewMux builds the telemetry mux. It registers the fabric gauges on
// cfg.Registry as a side effect when an endpoint is attached, and reads the
// live pass number from the same pgarm_pass gauge the mining node updates
// (register() is idempotent per name+labels).
func NewMux(cfg Config) *http.ServeMux {
	logger := cfg.Log
	if logger == nil {
		logger = slog.Default()
	}
	reg := cfg.Registry
	l := obs.L("node", strconv.Itoa(cfg.Node))
	if ep := cfg.Endpoint; ep != nil {
		reg.GaugeFunc("pgarm_fabric_bytes_sent", "Fabric payload bytes sent since start.",
			func() float64 { return float64(ep.Stats().BytesSent) }, l)
		reg.GaugeFunc("pgarm_fabric_bytes_received", "Fabric payload bytes received since start.",
			func() float64 { return float64(ep.Stats().BytesReceived) }, l)
		reg.GaugeFunc("pgarm_fabric_msgs_sent", "Fabric messages sent since start.",
			func() float64 { return float64(ep.Stats().MsgsSent) }, l)
		reg.GaugeFunc("pgarm_fabric_msgs_received", "Fabric messages received since start.",
			func() float64 { return float64(ep.Stats().MsgsReceived) }, l)
	}
	passGauge := reg.Gauge("pgarm_pass", "Pass currently executing.", l)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logger.Error("metrics write failed", "err", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := health{
			Node:      cfg.Node,
			Nodes:     cfg.Nodes,
			Algorithm: cfg.Algorithm,
			Pass:      passGauge.Value(),
		}
		if cfg.Done != nil {
			h.Done = cfg.Done.Load()
		}
		code := http.StatusOK
		if cfg.Endpoint != nil {
			if err := cfg.Endpoint.Err(); err != nil {
				h.FabricError = err.Error()
				code = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(&h); err != nil {
			logger.Error("healthz write failed", "err", err)
		}
	})
	if cfg.Cluster != nil {
		mux.Handle("/debug/cluster", cfg.Cluster)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ReadHeaderTimeout bounds how long a client may take to send its request
// headers. A connection that sends nothing is closed once it passes, so an
// idle client cannot hold a goroutine and a file descriptor forever. Every
// HTTP server of the pgarm binaries uses it.
const ReadHeaderTimeout = 5 * time.Second

// Serve binds addr and serves the mux in a background goroutine, logging (not
// crashing) on server errors — telemetry must never take the miner down. It
// returns the bound address (useful with ":0") or an error if the listen
// itself failed.
func Serve(addr string, mux http.Handler, logger *slog.Logger) (string, error) {
	if logger == nil {
		logger = slog.Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}
		if err := srv.Serve(ln); err != nil {
			logger.Error("telemetry http server stopped", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}
