package core

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/txn"
)

// TestMeshMergedClusterTelemetry is the end-to-end check of the cluster
// telemetry plane over a real 4-node TCP mesh (the multi-process deployment
// path, exercised in-process with one tracer per worker so span shipping is
// live):
//
//   - the coordinator's trace is the merged cluster trace: valid trace_event
//     JSON with spans on every node's track group, remote timestamps rebased
//     into the coordinator's clock (all inside the run envelope, and every
//     pass barrier in causal order across nodes, although the tracers'
//     clocks start 100 ms apart);
//   - the coordinator's stats merge every worker's pass windows and endpoint
//     totals, and reconcile exactly with telemetry traffic included;
//   - the run report's per-pass skew section agrees with the per-node stats
//     it was computed from;
//   - /debug/cluster serves consistent JSON under concurrent reads while the
//     run is in flight (the race check: run with -race).
func TestMeshMergedClusterTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh run in short mode")
	}
	ds := testDataset(t, 1600)
	const (
		nodes  = 4
		minSup = 0.03
	)
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	parts := txn.Partition(ds.DB, nodes)

	listeners := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// Concurrent /debug/cluster readers for the whole run duration.
	view := &driver.ClusterView{}
	var running atomic.Bool
	running.Store(true)
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for running.Load() {
				rec := httptest.NewRecorder()
				view.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cluster", nil))
				var snap driver.ClusterSnapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
					t.Errorf("/debug/cluster body not JSON: %v", err)
					return
				}
				if snap.Pass < 0 || snap.Pass > 64 {
					t.Errorf("/debug/cluster pass = %d", snap.Pass)
					return
				}
			}
		}()
	}

	// Each tracer's clock starts 100 ms after the previous one, so follower
	// i's clock reads i*100 ms behind the coordinator's: a merge that skipped
	// the offset, or flipped its sign, would misplace its spans by that much.
	start := time.Now()
	tracers := make([]*obs.Tracer, nodes)
	for i := range tracers {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		tracers[i] = obs.NewTracer()
	}
	results := make([]*Result, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, mesh, err := cluster.DialMesh(i, addrs, cluster.MeshOptions{Listener: listeners[i], DialTimeout: 10 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			defer mesh.Close()
			cfg := Config{
				Algorithm:  HHPGMFGD,
				MinSupport: minSup,
				Tracer:     tracers[i],
			}
			if i == 0 {
				cfg.View = view
			}
			results[i], errs[i] = MineWorker(ds.Taxonomy, parts[i], cfg, ep)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	running.Store(false)
	readers.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		assertSameLarge(t, want, results[i])
	}

	// Coordinator stats are the merged cluster view: every node in every
	// pass, every endpoint, and the accounting balances with the telemetry
	// traffic included.
	stats := results[0].Stats
	if stats.Nodes != nodes || len(stats.Endpoints) != nodes {
		t.Fatalf("merged stats cover %d nodes / %d endpoints, want %d", stats.Nodes, len(stats.Endpoints), nodes)
	}
	for _, p := range stats.Passes {
		if len(p.Nodes) != nodes {
			t.Fatalf("pass %d has %d node windows, want %d", p.Pass, len(p.Nodes), nodes)
		}
	}
	if err := stats.ReconcileEndpoints(); err != nil {
		t.Fatalf("merged reconcile: %v", err)
	}
	// Followers still reconcile locally (their flush fold keeps their own
	// windows tiling), but only see themselves.
	for i := 1; i < nodes; i++ {
		if err := results[i].Stats.ReconcileEndpoints(); err != nil {
			t.Fatalf("worker %d reconcile: %v", i, err)
		}
		if got := len(results[i].Stats.Endpoints); got != 1 {
			t.Fatalf("worker %d has %d endpoints, want 1", i, got)
		}
	}

	// The coordinator's trace is the merged cluster trace.
	assertMergedTrace(t, tracers[0], nodes, elapsed)
	if d := tracers[0].Dropped(); d != 0 {
		t.Fatalf("merged tracer dropped %d spans", d)
	}

	// Report: one skew entry per pass, computed from exactly the per-node
	// stats the pass section carries.
	rep := metrics.BuildReport(stats, tracers[0])
	if len(rep.Skew) != len(rep.Passes) {
		t.Fatalf("report has %d skew entries over %d passes", len(rep.Skew), len(rep.Passes))
	}
	for i, s := range rep.Skew {
		if s.Pass != rep.Passes[i].Pass {
			t.Fatalf("skew[%d].Pass = %d, want %d", i, s.Pass, rep.Passes[i].Pass)
		}
		if recomputed := metrics.ComputeSkew(stats.Passes[i].Pass, stats.Passes[i].Nodes); recomputed != s {
			t.Fatalf("skew[%d] = %+v, recomputed %+v", i, s, recomputed)
		}
		if s.Straggler < 0 || s.Straggler >= nodes {
			t.Fatalf("skew[%d].Straggler = %d", i, s.Straggler)
		}
	}

	// The live view settled into the finished state.
	snap := view.Snapshot()
	if !snap.Done || snap.Nodes != nodes || snap.Skew == nil {
		t.Fatalf("final view = %+v", snap)
	}
	for _, p := range snap.Progress {
		if p.Lag != 0 {
			t.Fatalf("final lag nonzero: %+v", snap.Progress)
		}
	}
}

// assertMergedTrace validates the coordinator's merged trace: structurally
// valid trace_event JSON, at least one complete span on every node's track
// group (pid = node), every rebased timestamp inside the run envelope — a
// remote span rebased with a wildly wrong offset would land far outside it —
// and the pass barriers in causal order (assertBarrierOrder).
func assertMergedTrace(t *testing.T, tr *obs.Tracer, nodes int, elapsed time.Duration) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	// Envelope in trace microseconds, with slack for goroutine startup.
	slackUS := float64(2 * time.Second / time.Microsecond)
	elapsedUS := float64(elapsed / time.Microsecond)
	spansPerNode := make([]int, nodes)
	barriers := make([][][2]float64, nodes)
	for i, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Pid < 0 || ev.Pid >= nodes {
			t.Fatalf("event %d on unexpected pid %d", i, ev.Pid)
		}
		spansPerNode[ev.Pid]++
		if ev.TS < -slackUS || ev.TS+ev.Dur > elapsedUS+slackUS {
			t.Fatalf("span %q on node %d at [%f, %f]us outside run envelope [0, %f]us",
				ev.Name, ev.Pid, ev.TS, ev.TS+ev.Dur, elapsedUS)
		}
		if ev.Name == "barrier" {
			barriers[ev.Pid] = append(barriers[ev.Pid], [2]float64{ev.TS, ev.TS + ev.Dur})
		}
	}
	for node, n := range spansPerNode {
		if n == 0 {
			t.Fatalf("merged trace has no spans for node %d (per-node counts: %v)", node, spansPerNode)
		}
	}
	assertBarrierOrder(t, barriers)
}

// barrierToleranceUS bounds the clock-offset error a merged trace may show.
// The estimate errs by at most half the delay of the round trip it comes
// from, and that delay is mostly goroutine wake-ups: well under 1 ms in a
// plain run, tens of ms under -race on two hardware threads with the
// /debug/cluster readers spinning. 20 ms keeps the check clear of that and
// far below the 100 ms a skipped or sign-flipped offset moves a follower.
const barrierToleranceUS = 20000

// assertBarrierOrder checks the merged trace's barrier spans ([start, end]
// in trace microseconds, per node, in trace order — the i-th is the node's
// pass-(i+1) barrier) against the protocol's causal order. A follower's
// barrier cannot end before the coordinator's begins, because it waits for
// the coordinator's L_k, nor begin after the coordinator's ends, because the
// coordinator waits for the follower's batch.
func assertBarrierOrder(t *testing.T, barriers [][][2]float64) {
	t.Helper()
	coord := barriers[0]
	if len(coord) == 0 {
		t.Fatal("merged trace has no coordinator barrier spans")
	}
	for node, spans := range barriers[1:] {
		node++
		if len(spans) != len(coord) {
			t.Fatalf("node %d has %d barrier spans, the coordinator %d", node, len(spans), len(coord))
		}
		for i, b := range spans {
			c := coord[i]
			if b[1] < c[0]-barrierToleranceUS {
				t.Errorf("pass %d: node %d's barrier ends at %.0fus, %.0fus before the coordinator's begins",
					i+1, node, b[1], c[0]-b[1])
			}
			if b[0] > c[1]+barrierToleranceUS {
				t.Errorf("pass %d: node %d's barrier begins at %.0fus, %.0fus after the coordinator's ends",
					i+1, node, b[0], b[0]-c[1])
			}
		}
	}
}
