package metrics

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/obs"
)

func reconciledRun() *RunStats {
	// Two nodes, two passes; kind 3 is the data plane.
	mk := func(node int, sentB, recvB int64) NodeStats {
		return NodeStats{
			Node:    node,
			Traffic: cluster.Traffic{MsgsSent: 2, MsgsReceived: 2, BytesSent: sentB, BytesReceived: recvB},
			ByKind: []KindIO{
				{Kind: 1, Name: "size", Traffic: cluster.Traffic{MsgsSent: 1, MsgsReceived: 1, BytesSent: sentB / 2, BytesReceived: recvB / 2}},
				{Kind: 3, Name: "data", Traffic: cluster.Traffic{MsgsSent: 1, MsgsReceived: 1, BytesSent: sentB - sentB/2, BytesReceived: recvB - recvB/2}},
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
			{Node: 0, Traffic: cluster.Traffic{MsgsSent: 4, MsgsReceived: 4, BytesSent: 130, BytesReceived: 50},
				ByKind: []KindIO{
					{Kind: 1, Traffic: cluster.Traffic{MsgsSent: 2, MsgsReceived: 2, BytesSent: 65, BytesReceived: 25}},
					{Kind: 3, Traffic: cluster.Traffic{MsgsSent: 2, MsgsReceived: 2, BytesSent: 65, BytesReceived: 25}},
				}},
			{Node: 1, Traffic: cluster.Traffic{MsgsSent: 4, MsgsReceived: 4, BytesSent: 80, BytesReceived: 160},
				ByKind: []KindIO{
					{Kind: 1, Traffic: cluster.Traffic{MsgsSent: 2, MsgsReceived: 2, BytesSent: 40, BytesReceived: 80}},
					{Kind: 3, Traffic: cluster.Traffic{MsgsSent: 2, MsgsReceived: 2, BytesSent: 40, BytesReceived: 80}},
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
	// One pass window books a byte under the wrong kind: every aggregate
	// still balances, only the per-kind sums do not.
	rs = reconciledRun()
	rs.Passes[1].Nodes[0].ByKind[0].BytesSent++
	rs.Passes[1].Nodes[0].ByKind[1].BytesSent--
	if err := rs.ReconcileEndpoints(); err == nil || !strings.Contains(err.Error(), "node 0 kind 1") {
		t.Fatalf("traffic booked under the wrong kind: got %v", err)
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
	if n, err := json.Marshal(rep.Passes[0].Nodes[0]); err != nil || !strings.Contains(string(n), `"barrier_wait_ms":5,`) {
		t.Errorf("barrier wait: %s, %v", n, err)
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

// goldenNodes are two pass windows built by assignment, so the same source
// compiled against the parent's flat NodeStats when the golden was recorded:
// one with every counter and per-kind traffic set, one with the optional
// counters zero and durations down to one nanosecond.
func goldenNodes() []NodeStats {
	var full NodeStats
	full.Node = 1
	full.TxnsScanned, full.Probes, full.Increments = 1000, 52345, 4321
	full.ItemsSent, full.ItemsReceived = 777, 888
	full.MsgsSent, full.MsgsReceived, full.BytesSent, full.BytesReceived = 7, 9, 4096, 8191
	full.DataBytesSent, full.DataBytesReceived = 3000, 6000
	full.BlocksScanned, full.BlocksSkipped, full.BytesDecoded = 4, 1, 512
	full.ScanTime, full.BarrierWait = 1500*time.Microsecond, 5*time.Millisecond
	var size, data KindIO
	size.Kind, size.Name = 1, "size"
	size.MsgsSent, size.MsgsReceived, size.BytesSent, size.BytesReceived = 2, 3, 96, 191
	data.Kind = 3
	data.MsgsSent, data.MsgsReceived, data.BytesSent, data.BytesReceived = 5, 6, 4000, 8000
	full.ByKind = []KindIO{size, data}

	var bare NodeStats
	bare.Probes, bare.BytesSent = 12, 34
	bare.ScanTime, bare.BarrierWait = 250*time.Nanosecond, time.Nanosecond
	return []NodeStats{full, bare}
}

// TestNodeReportGolden pins the report's per-node object byte for byte —
// key order, omitted optionals, durations in milliseconds — against what the
// struct-tagged NodeReport emitted at the parent of PR 24.
func TestNodeReportGolden(t *testing.T) {
	rs := &RunStats{Passes: []PassStats{{Pass: 1, Nodes: goldenNodes()}}}
	var got []byte
	for _, n := range BuildReport(rs, nil).Passes[0].Nodes {
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(append(got, b...), '\n')
	}
	want, err := os.ReadFile("testdata/node_report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("per-node report JSON differs from testdata/node_report.golden:\n%s", got)
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
