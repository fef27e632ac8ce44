package obshttp_test

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/core"
	"pgarm/internal/engines"
	"pgarm/internal/gen"
	"pgarm/internal/obs"
	"pgarm/internal/obshttp"
	"pgarm/internal/txn"
)

// TestMetricsSeriesGolden pins the /metrics surface of a mining process: the
// families (name, type, help) and the series names and label sets (histogram
// buckets included) a 2-node traced run with a registry exposes, whatever
// their values. A counter renamed, dropped or registered under another label
// fails here.
func TestMetricsSeriesGolden(t *testing.T) {
	ds, err := gen.Generate(gen.Params{
		Name: "unit", NumTxns: 600, AvgTxnSize: 6, AvgPatternSize: 3, NumPatterns: 300,
		NumItems: 900, Roots: 8, Fanout: 4, CorrelationMean: 0.25,
		CorruptionMean: 0.6, CorruptionSD: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parts []txn.Scanner
	for _, p := range txn.Partition(ds.DB, 2) {
		parts = append(parts, p)
	}
	reg := obs.NewRegistry()
	_, err = engines.Run(ds.Taxonomy, parts, engines.Spec{
		Algorithm: core.HPGM, MinSupport: 0.02, MaxK: 3,
		Tracer: obs.NewTracer(), Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := cluster.NewChanFabric(2, 0)
	defer fabric.Close()
	mux := obshttp.NewMux(obshttp.Config{Nodes: 2, Registry: reg, Endpoint: fabric.Endpoint(0)})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil || rec.Code != 200 {
		t.Fatalf("GET /metrics: status %d, err %v", rec.Code, err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] // drop the value
		}
		seen[line] = true
	}
	series := make([]string, 0, len(seen))
	for s := range seen {
		series = append(series, s)
	}
	sort.Strings(series)
	got := strings.Join(series, "\n") + "\n"

	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics series set differs from testdata/metrics_series.golden:\n%s", got)
	}
}

// TestServeClosesIdleConnection: a client that connects and sends nothing is
// disconnected once ReadHeaderTimeout passes, instead of holding a server
// goroutine and a file descriptor forever.
func TestServeClosesIdleConnection(t *testing.T) {
	t.Parallel()
	addr, err := obshttp.Serve("127.0.0.1:0", http.NewServeMux(), nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	bound := obshttp.ReadHeaderTimeout + time.Second
	if err := conn.SetReadDeadline(start.Add(2 * bound)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil at EOF: the server closed the connection.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("idle connection still open after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed > bound {
		t.Fatalf("idle connection closed after %v, want within %v", elapsed, bound)
	}
}
