package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/model"
	"pgarm/internal/obshttp"
	"pgarm/internal/rules"
	"pgarm/internal/taxonomy"
)

// bin is the pgarm-serve binary under test, built once from this package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgarm-serve-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "pgarm-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeModel writes a one-rule snapshot, {2} => {3} over two two-level
// trees; conf tells snapshots apart.
func writeModel(t *testing.T, path string, conf float64) {
	t.Helper()
	m := &model.Model{
		Meta:     model.Meta{Dataset: "test", Algorithm: "Cumulate", NumTxns: 100, CreatedUnix: time.Now().Unix()},
		Taxonomy: taxonomy.MustNew([]item.Item{item.None, item.None, 0, 1}),
		Rules: []rules.Rule{{
			Antecedent: []item.Item{2}, Consequent: []item.Item{3},
			Confidence: conf, Support: 0.1, Count: 10,
		}},
	}
	if err := model.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
}

// lockedBuffer collects the server's stderr while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type health struct {
	Generation int64  `json:"generation"`
	Checksum   string `json:"checksum"`
}

// waitFor polls cond every 20 ms for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSIGHUPReload drives the binary's operational hot-swap path: SIGHUP
// after the snapshot file is overwritten moves the server to generation 2
// with a new checksum, and SIGHUP over a corrupt file keeps generation 2
// answering queries. An idle connection opened at start is closed within the
// header-read timeout.
func TestSIGHUPReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.pgarm")
	writeModel(t, path, 0.8)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr lockedBuffer
	cmd := exec.Command(bin, "-model", path, "-addr", addr)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	url := "http://" + addr
	healthz := func() (health, bool) {
		var h health
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			return h, false
		}
		defer resp.Body.Close()
		return h, resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil
	}
	var first health
	waitFor(t, "the server to come up", func() bool {
		var ok bool
		first, ok = healthz()
		return ok
	})
	if first.Generation != 1 {
		t.Fatalf("first snapshot serves as generation %d, want 1", first.Generation)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleSince := time.Now()

	// Overwrite the snapshot, then SIGHUP: generation 2, new checksum.
	writeModel(t, path, 0.6)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	var second health
	waitFor(t, "generation 2", func() bool {
		var ok bool
		second, ok = healthz()
		return ok && second.Generation == 2
	})
	if second.Checksum == first.Checksum {
		t.Fatalf("generation 2 kept checksum %s", first.Checksum)
	}

	// A corrupt file plus SIGHUP: the reload fails and generation 2 serves on.
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the failed reload to be logged", func() bool {
		return strings.Contains(stderr.String(), "SIGHUP reload failed")
	})
	if h, ok := healthz(); !ok || h != second {
		t.Fatalf("after a failed reload /healthz reports %+v, want %+v", h, second)
	}
	resp, err := http.Post(url+"/v1/recommend", "application/json", strings.NewReader(`{"basket":[2],"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Model      string `json:"model"`
		Generation int64  `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || rec.Model != second.Checksum || rec.Generation != 2 {
		t.Fatalf("recommend after a failed reload: status %d, %+v, err %v; want generation 2 of %s",
			resp.StatusCode, rec, err, second.Checksum)
	}

	// The idle connection sent nothing: the server closes it (ReadAll ends
	// at EOF with a nil error) once the header-read timeout passes.
	bound := obshttp.ReadHeaderTimeout + time.Second
	if err := idle.SetReadDeadline(idleSince.Add(2 * bound)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(idle); err != nil {
		t.Fatalf("idle connection still open after %v: %v", time.Since(idleSince), err)
	}
	if elapsed := time.Since(idleSince); elapsed > bound {
		t.Fatalf("idle connection closed after %v, want within %v", elapsed, bound)
	}
}
