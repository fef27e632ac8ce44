package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pgarm/internal/cluster"
)

func samplePass() PassStats {
	return PassStats{
		Pass:       2,
		Candidates: 100,
		Large:      40,
		Nodes: []NodeStats{
			{Node: 0, Probes: 100, Traffic: cluster.Traffic{BytesReceived: 1500}, DataBytesReceived: 1000, ItemsSent: 10, TxnsScanned: 50},
			{Node: 1, Probes: 300, Traffic: cluster.Traffic{BytesReceived: 3500}, DataBytesReceived: 3000, ItemsSent: 30, TxnsScanned: 50},
			{Node: 2, Probes: 200, Traffic: cluster.Traffic{BytesReceived: 2500}, DataBytesReceived: 2000, ItemsSent: 20, TxnsScanned: 50},
		},
	}
}

func TestPassAggregates(t *testing.T) {
	p := samplePass()
	if got := p.AvgBytesReceived(); got != 2000 {
		t.Errorf("AvgBytesReceived = %g", got)
	}
	if got := p.TotalItemsSent(); got != 60 {
		t.Errorf("TotalItemsSent = %d", got)
	}
	empty := PassStats{}
	if empty.AvgBytesReceived() != 0 {
		t.Error("empty pass avg should be 0")
	}
}

func TestSkewSummary(t *testing.T) {
	s := Summarize([]float64{100, 300, 200})
	if s.Min != 100 || s.Max != 300 || s.Mean != 200 {
		t.Errorf("summary = %+v", s)
	}
	if s.MaxOverMean != 1.5 {
		t.Errorf("MaxOverMean = %g", s.MaxOverMean)
	}
	if s.CV <= 0 {
		t.Errorf("CV = %g", s.CV)
	}
	flat := Summarize([]float64{5, 5, 5})
	if flat.CV != 0 || flat.MaxOverMean != 1 {
		t.Errorf("flat skew = %+v", flat)
	}
	if z := Summarize(nil); z.Mean != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
	if !strings.Contains(s.String(), "max/mean") {
		t.Error("Skew.String missing fields")
	}
}

func TestProbeSkewUsesProbes(t *testing.T) {
	p := samplePass()
	s := p.ProbeSkew()
	if s.Max != 300 || s.Min != 100 {
		t.Errorf("probe skew = %+v", s)
	}
}

func TestRunStatsPassLookupAndString(t *testing.T) {
	rs := RunStats{
		Algorithm: "H-HPGM",
		Dataset:   "R30F5",
		Nodes:     3,
		MinSup:    0.003,
		Passes:    []PassStats{{Pass: 1}, samplePass()},
	}
	if rs.Pass(2) == nil || rs.Pass(2).Candidates != 100 {
		t.Error("Pass(2) lookup failed")
	}
	if rs.Pass(7) != nil {
		t.Error("Pass(7) should be nil")
	}
	out := rs.String()
	for _, want := range []string{"H-HPGM", "R30F5", "pass 2", "0.3%"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q in %q", want, out)
		}
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{ProbePerOp: time.Microsecond, PerItem: 2 * time.Microsecond, PerByte: time.Nanosecond, PerTxn: time.Millisecond}
	ns := NodeStats{
		Probes:      1000,
		ItemsSent:   10,
		TxnsScanned: 2,
		// Whole-pass bytes include control traffic the model must ignore;
		// only the data-plane portion is charged.
		Traffic:       cluster.Traffic{BytesSent: 9999, BytesReceived: 9999},
		DataBytesSent: 500, DataBytesReceived: 500,
	}
	want := 1000*time.Microsecond + 10*2*time.Microsecond + 1000*time.Nanosecond + 2*time.Millisecond
	if got := m.NodeTime(ns); got != want {
		t.Errorf("NodeTime = %v, want %v", got, want)
	}
	p := samplePass()
	pt := m.PassTime(p)
	// Slowest node is node 1.
	if pt != m.NodeTime(p.Nodes[1]) {
		t.Errorf("PassTime = %v, want slowest node's time", pt)
	}
	if d := DefaultCostModel(); d.ProbePerOp <= 0 || d.PerByte <= 0 || d.PerTxn <= 0 {
		t.Error("default model has non-positive constants")
	}
}

// TestCountersCoverNodeStats: every int64 or time.Duration field of NodeStats
// (the embedded traffic record's included) is addressed by exactly one row of
// Counters, and every row names its key. A counter added to the struct but not
// to the list would otherwise be silently missing from the telemetry plane,
// the run report and /metrics. The one exemption is BlocksSkipped, which is
// always zero and kept only for bench/ to read.
func TestCountersCoverNodeStats(t *testing.T) {
	const exempt = "BlocksSkipped"
	var s NodeStats
	rows := map[*int64]string{}
	keys := map[string]bool{}
	for _, c := range Counters {
		p := c.At(&s)
		if prev, dup := rows[p]; dup {
			t.Errorf("rows %q and %q address the same field", prev, c.Key)
		}
		if c.Key == "" || keys[c.Key] {
			t.Errorf("row key %q is empty or repeated", c.Key)
		}
		if (c.Series == "") != (c.Help == "") {
			t.Errorf("row %q: a series needs a help text and only a series has one", c.Key)
		}
		rows[p], keys[c.Key] = c.Key, true
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Interface().(type) {
			case int64, time.Duration:
				p := (*int64)(f.Addr().UnsafePointer())
				if _, ok := rows[p]; !ok && name != exempt {
					t.Errorf("NodeStats.%s has no row in Counters", name)
				}
				delete(rows, p)
			default:
				if f.Kind() == reflect.Struct {
					walk(f, name+".")
				}
			}
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")
	for _, key := range rows {
		t.Errorf("row %q addresses no int64 or time.Duration field of NodeStats", key)
	}
}
