package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pgarm/internal/gen"
	"pgarm/internal/txn"
)

// bin is the pgarm-worker binary under test, built once from this package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgarm-worker-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "pgarm-worker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// barrierToleranceUS bounds the clock-offset error the merged trace may
// show: the estimate errs by at most half the delay of the round trip it
// comes from, well under this on loopback.
const barrierToleranceUS = 20000

// TestThreeProcessMesh runs three worker processes on loopback, started
// 100 ms apart so their trace clocks are too, and checks what node 0 writes:
// a -verify report that matches sequential Cumulate, and a merged trace with
// spans from every node whose pass barriers keep the protocol's causal order
// — which a skipped or sign-flipped clock offset would break by 100 ms.
func TestThreeProcessMesh(t *testing.T) {
	const nodes = 3
	dir := t.TempDir()
	parts := writePartitions(t, dir, nodes)
	addrs := freeAddrs(t, nodes)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	trace := filepath.Join(dir, "cluster-trace.json")
	report := filepath.Join(dir, "report.json")
	cmds := make([]*exec.Cmd, nodes)
	logs := make([]bytes.Buffer, nodes)
	for i := range cmds {
		args := []string{"-node", strconv.Itoa(i), "-addrs", strings.Join(addrs, ","), "-in", parts[i],
			"-minsup", "0.02", "-dial-timeout", "20s"}
		if i == 0 {
			args = append(args, "-trace", trace, "-json", report, "-verify", strings.Join(parts, ","))
		} else {
			args = append(args, "-trace", filepath.Join(dir, fmt.Sprintf("node%d-trace.json", i)))
		}
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		cmds[i] = exec.CommandContext(ctx, bin, args...)
		cmds[i].Stdout = &logs[i]
		cmds[i].Stderr = &logs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cmds {
		if err := c.Wait(); err != nil {
			t.Errorf("worker %d: %v\n%s", i, err, logs[i].String())
		}
	}
	if t.Failed() {
		return
	}

	var rep struct {
		Identical bool `json:"identical"`
	}
	readJSON(t, report, &rep)
	if !rep.Identical {
		t.Error("report: identical is false, want the mesh to match sequential Cumulate")
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
	readJSON(t, trace, &file)
	spans := make([]int, nodes)
	barriers := make([][][2]float64, nodes)
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Pid < 0 || ev.Pid >= nodes {
			t.Fatalf("span %q on unexpected pid %d", ev.Name, ev.Pid)
		}
		spans[ev.Pid]++
		if ev.Name == "barrier" {
			barriers[ev.Pid] = append(barriers[ev.Pid], [2]float64{ev.TS, ev.TS + ev.Dur})
		}
	}
	for pid, n := range spans {
		if n == 0 {
			t.Fatalf("merged trace has no spans on pid %d (per-pid counts %v)", pid, spans)
		}
	}
	for _, b := range barriers {
		sort.Slice(b, func(i, j int) bool { return b[i][0] < b[j][0] })
	}
	assertBarrierOrder(t, barriers)
}

// assertBarrierOrder checks the merged trace's barrier spans ([start, end]
// in trace microseconds, per node, in start order — the i-th is the node's
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

// writePartitions deals R30F5 x 0.001 round-robin into one row-format
// partition file per node, as pgarm-gen -nodes does.
func writePartitions(t *testing.T, dir string, nodes int) []string {
	t.Helper()
	paths := make([]string, nodes)
	writers := make([]*txn.RowWriter, nodes)
	for i := range writers {
		paths[i] = filepath.Join(dir, fmt.Sprintf("r.n%02d.ptx", i))
		w, err := txn.NewRowWriter(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = w
	}
	i := 0
	if _, err := gen.Stream(gen.R30F5().Scaled(0.001), func(tx txn.Transaction) error {
		w := writers[i%nodes]
		i++
		return w.Append(tx)
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// freeAddrs returns n loopback addresses whose ports were free a moment ago.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
