package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
)

// traceFullSweep reports whether the env-gated full observability sweep is on
// (CI sets PGARM_TEST_TRACE=1 to run every algorithm over both fabrics with
// tracing enabled, under -race).
func traceFullSweep() bool { return os.Getenv("PGARM_TEST_TRACE") == "1" }

// validateTraceJSON writes the tracer's Chrome trace and checks it is
// structurally valid trace_event JSON: a traceEvents array of well-formed
// "X" (complete) and "M" (metadata) events.
func validateTraceJSON(t *testing.T, tr *obs.Tracer) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var file struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	names := make(map[string]int)
	for i, raw := range file.TraceEvents {
		var ev struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		switch ev.Ph {
		case "X":
			if ev.Name == "" || ev.TS < 0 || ev.Dur < 0 || ev.Pid < 0 || ev.Tid < 0 {
				t.Fatalf("event %d malformed: %s", i, raw)
			}
			names[ev.Name]++
		case "M":
			// metadata events carry process/thread names
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
	}
	return names
}

// TestObservabilityEndToEnd runs real Mine calls with the tracer, registry
// and progress callbacks attached and checks the whole observability surface:
// results unchanged, per-pass per-kind byte accounting reconciling exactly
// with the fabric endpoint totals, a valid Chrome trace with the expected
// span taxonomy, live registry series, and coordinator pass callbacks.
func TestObservabilityEndToEnd(t *testing.T) {
	ds := testDataset(t, 2000)
	const minSup = 0.02
	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatalf("cumulate: %v", err)
	}

	algos := []Algorithm{HPGM, HHPGM, NPGM}
	fabrics := []driver.FabricKind{driver.FabricChan}
	if traceFullSweep() {
		algos = Algorithms()
		fabrics = append(fabrics, driver.FabricTCP)
	}
	for _, fk := range fabrics {
		for _, algo := range algos {
			algo, fk := algo, fk
			name := string(algo)
			if fk == driver.FabricTCP {
				name += "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				tr := obs.NewTracer()
				reg := obs.NewRegistry()
				type passEvt struct {
					pass, cands int
				}
				var starts []passEvt
				var done []driver.PassProgress
				cfg := Config{
					Algorithm:   algo,
					MinSupport:  minSup,
					Workers:     3,
					Fabric:      fk,
					Tracer:      tr,
					Registry:    reg,
					OnPassStart: func(pass, cands int) { starts = append(starts, passEvt{pass, cands}) },
					OnPass:      func(p driver.PassProgress) { done = append(done, p) },
				}
				res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 3), cfg)
				if err != nil {
					t.Fatalf("mine: %v", err)
				}
				assertSameLarge(t, want, res)

				// Per-pass windows must tile the endpoints' lifetime totals,
				// in aggregate and per message kind.
				if err := res.Stats.ReconcileEndpoints(); err != nil {
					t.Fatalf("reconcile: %v", err)
				}

				// Trace: valid JSON, every expected span kind present.
				if tr.Spans() == 0 {
					t.Fatal("tracer recorded no spans")
				}
				if tr.Dropped() != 0 {
					t.Fatalf("tracer dropped %d spans", tr.Dropped())
				}
				names := validateTraceJSON(t, tr)
				// Only the algorithms that route at no budget open a
				// count-support exchange; NPGM and the duplicating variants
				// replicate every candidate and scan without one.
				wantSpans := []string{"pass 1", "generate", "barrier", "scan", "partition"}
				if algo == HPGM || algo == HHPGM {
					wantSpans = append(wantSpans, "exchange", "count", "recv")
				} else if names["exchange"] != 0 || names["recv"] != 0 {
					t.Errorf("all-replicated passes opened an exchange (got %v)", names)
				}
				for _, n := range wantSpans {
					if names[n] == 0 {
						t.Errorf("trace has no %q span (got %v)", n, names)
					}
				}

				// Registry: per-node series exist and counted real work.
				var prom bytes.Buffer
				if err := reg.WritePrometheus(&prom); err != nil {
					t.Fatalf("WritePrometheus: %v", err)
				}
				text := prom.String()
				for _, series := range []string{
					`pgarm_txns_scanned_total{node="0"}`,
					`pgarm_probes_total{node="2"}`,
					`pgarm_barrier_wait_seconds_count{node="1"}`,
					`pgarm_scan_shard_seconds_count{node="0"}`,
				} {
					if !strings.Contains(text, series) {
						t.Errorf("registry output missing %s", series)
					}
				}

				// Coordinator callbacks: one start + one completion per pass
				// (pass 1 reports completion only), ascending, with the pass
				// window's byte counts attached.
				passes := len(res.Stats.Passes)
				if len(done) != passes {
					t.Fatalf("OnPass fired %d times over %d passes", len(done), passes)
				}
				if len(starts) != passes-1 {
					t.Fatalf("OnPassStart fired %d times over %d passes", len(starts), passes)
				}
				for i, p := range done {
					if p.Pass != i+1 {
						t.Fatalf("OnPass[%d].Pass = %d", i, p.Pass)
					}
					if p.Candidates != res.Stats.Passes[i].Candidates {
						t.Fatalf("pass %d: callback candidates %d, stats %d", p.Pass, p.Candidates, res.Stats.Passes[i].Candidates)
					}
					coord := res.Stats.Passes[i].Nodes[0]
					if i < len(done)-1 {
						if p.BytesIn != coord.BytesReceived || p.BytesOut != coord.BytesSent {
							t.Fatalf("pass %d: callback bytes (%d in, %d out) != coordinator window (%d in, %d out)",
								p.Pass, p.BytesIn, p.BytesOut, coord.BytesReceived, coord.BytesSent)
						}
					} else {
						// The last pass window additionally absorbs the
						// run-end telemetry flush, folded in after the
						// callback fired so the windows keep tiling the
						// endpoint totals — it can only exceed the callback.
						if p.BytesIn > coord.BytesReceived || p.BytesOut > coord.BytesSent {
							t.Fatalf("pass %d: callback bytes (%d in, %d out) exceed coordinator window (%d in, %d out)",
								p.Pass, p.BytesIn, p.BytesOut, coord.BytesReceived, coord.BytesSent)
						}
					}
				}

				// The run report built from this run round-trips as JSON and
				// carries the span rollups.
				rep := metrics.BuildReport(res.Stats, tr)
				if len(rep.Spans) == 0 || len(rep.Endpoints) != 3 {
					t.Fatalf("report shape: %d spans, %d endpoints", len(rep.Spans), len(rep.Endpoints))
				}
				if _, err := json.Marshal(rep); err != nil {
					t.Fatalf("report marshal: %v", err)
				}
			})
		}
	}
}

// TestReconcileWithoutObservability checks that the per-pass accounting
// reconciles when no tracer or registry is configured — the monotonic
// snapshots are part of the pass protocol itself, not of the tracing layer.
func TestReconcileWithoutObservability(t *testing.T) {
	ds := testDataset(t, 1500)
	for _, algo := range []Algorithm{HPGM, HHPGMFGD} {
		res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 4), Config{
			Algorithm:  algo,
			MinSupport: 0.02,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := res.Stats.ReconcileEndpoints(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestDataBytesSentMatchesDataKind pins the Table 6 sent-side attribution:
// NodeStats.DataBytesSent must equal the pass window's kData byte slice.
func TestDataBytesSentMatchesDataKind(t *testing.T) {
	ds := testDataset(t, 1500)
	res, err := Mine(ds.Taxonomy, partsOf(ds.DB, 3), Config{
		Algorithm:  HPGM,
		MinSupport: 0.02,
	})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	sawData := false
	for _, ps := range res.Stats.Passes {
		for _, ns := range ps.Nodes {
			var kd int64
			for _, kio := range ns.ByKind {
				if kio.Name == "data" {
					kd = kio.BytesSent
				}
			}
			if ns.DataBytesSent != kd {
				t.Fatalf("pass %d node %d: DataBytesSent %d != kData window %d", ps.Pass, ns.Node, ns.DataBytesSent, kd)
			}
			if kd > 0 {
				sawData = true
			}
		}
	}
	if !sawData {
		t.Fatal("no pass shipped any count-support data; test dataset too small")
	}
}
