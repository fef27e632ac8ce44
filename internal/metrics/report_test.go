package metrics

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pgarm/internal/obs"
)

func reconciledRun() *RunStats {
	// Two nodes, two passes; kind 3 is the data plane.
	mk := func(node int, sentB, recvB int64) NodeStats {
		return NodeStats{
			Node: node, MsgsSent: 2, MsgsReceived: 2,
			BytesSent: sentB, BytesReceived: recvB,
			ByKind: []KindIO{
				{Kind: 1, Name: "size", MsgsSent: 1, MsgsReceived: 1, BytesSent: sentB / 2, BytesReceived: recvB / 2},
				{Kind: 3, Name: "data", MsgsSent: 1, MsgsReceived: 1, BytesSent: sentB - sentB/2, BytesReceived: recvB - recvB/2},
			},
		}
	}
	return &RunStats{
		Algorithm: "hpgm", Dataset: "t", Nodes: 2, MinSup: 0.01,
		Elapsed: time.Second,
		Passes: []PassStats{
			{Pass: 1, Candidates: 10, Large: 5, Nodes: []NodeStats{mk(0, 100, 40), mk(1, 60, 120)}},
			{Pass: 2, Candidates: 4, Large: 2, Nodes: []NodeStats{mk(0, 30, 10), mk(1, 20, 40)}},
		},
		Endpoints: []EndpointTotals{
			{Node: 0, MsgsSent: 4, MsgsReceived: 4, BytesSent: 130, BytesReceived: 50,
				ByKind: []KindIO{
					{Kind: 1, MsgsSent: 2, MsgsReceived: 2, BytesSent: 65, BytesReceived: 25},
					{Kind: 3, MsgsSent: 2, MsgsReceived: 2, BytesSent: 65, BytesReceived: 25},
				}},
			{Node: 1, MsgsSent: 4, MsgsReceived: 4, BytesSent: 80, BytesReceived: 160,
				ByKind: []KindIO{
					{Kind: 1, MsgsSent: 2, MsgsReceived: 2, BytesSent: 40, BytesReceived: 80},
					{Kind: 3, MsgsSent: 2, MsgsReceived: 2, BytesSent: 40, BytesReceived: 80},
				}},
		},
	}
}

func TestReconcileEndpoints(t *testing.T) {
	rs := reconciledRun()
	if err := rs.ReconcileEndpoints(); err != nil {
		t.Fatalf("balanced run failed to reconcile: %v", err)
	}
	// Perturb one endpoint total: must be caught.
	rs.Endpoints[0].BytesSent++
	if err := rs.ReconcileEndpoints(); err == nil {
		t.Fatal("aggregate imbalance not detected")
	}
	rs = reconciledRun()
	rs.Endpoints[1].ByKind[1].BytesReceived--
	rs.Endpoints[1].BytesReceived-- // keep aggregate consistent with itself
	if err := rs.ReconcileEndpoints(); err == nil {
		t.Fatal("per-kind imbalance not detected")
	}
	empty := &RunStats{}
	if err := empty.ReconcileEndpoints(); err == nil {
		t.Fatal("missing endpoint totals must error")
	}
}

func TestBuildReportShape(t *testing.T) {
	rs := reconciledRun()
	rs.Passes[0].Nodes[0].BarrierWait = 5 * time.Millisecond
	tr := obs.NewTracer()
	sp := tr.Begin(0, 0, "pass 1")
	sp.End()

	rep := BuildReport(rs, tr)
	if len(rep.Passes) != 2 || len(rep.Passes[0].Nodes) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "pass 1" {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	if rep.Passes[0].Nodes[0].BarrierWaitMS != 5 {
		t.Errorf("barrier wait = %v", rep.Passes[0].Nodes[0].BarrierWaitMS)
	}
	if rep.Passes[0].BarrierWaitSkew.Max == 0 {
		t.Error("barrier-wait skew missing")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Passes[0].AvgDataBytesReceived != rs.Passes[0].AvgBytesReceived() {
		t.Error("round trip lost data")
	}

	// A nil tracer yields a report without spans.
	rep2 := BuildReport(rs, nil)
	if rep2.Spans != nil {
		t.Errorf("nil tracer produced spans: %+v", rep2.Spans)
	}
}

// keyPaths lists every distinct key path of a JSON document, array indices
// collapsed to "[]", sorted — the schema a report exposes, whatever its
// values.
func keyPaths(t *testing.T, doc []byte) string {
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if prefix != "" {
			seen[prefix] = true
		}
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(strings.TrimPrefix(prefix+"."+k, "."), c)
			}
		case []any:
			for _, c := range v {
				walk(strings.TrimPrefix(prefix+".[]", "."), c)
			}
		}
	}
	walk("", v)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return strings.Join(paths, "\n") + "\n"
}

// TestReportKeySet pins the report schema: every section and every optional
// field, switched on, against the key set recorded at the commit before the
// version ladder was deleted (whose one difference is the "version" key).
func TestReportKeySet(t *testing.T) {
	rs := reconciledRun()
	p := &rs.Passes[0]
	p.Duplicated, p.Fragments, p.Generate = 3, 2, time.Millisecond
	p.Plan = &PlanDecision{
		Pass: 1, Partitioner: "root-vector-hash", Granule: "none", Candidates: 10, Duplicated: 3,
		Adaptive: true, SkewPass: 1, Escalations: []Escalation{{Root: 3, Granule: "fine"}},
	}
	n := &p.Nodes[0]
	n.BlocksScanned, n.BlocksSkipped, n.BytesDecoded = 4, 1, 512
	tr := obs.NewTracer()
	sp := tr.Begin(0, 0, "pass 1")
	sp.End()
	rep := BuildReport(rs, tr)
	rep.SpansDropped = 1

	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/report_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := keyPaths(t, doc); got != string(want) {
		t.Errorf("report key set differs from testdata/report_keys.golden:\n%s", got)
	}
}
