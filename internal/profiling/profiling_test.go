package profiling

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartWritesProfiles: with both paths set, the stop function leaves a
// gzip-compressed pprof profile at each.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes without a gzip header", filepath.Base(path), len(b))
		}
	}
}

// TestStartWithoutPaths: empty paths profile nothing, and the stop function
// writes nothing.
func TestStartWithoutPaths(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("stop wrote %v (%v)", ents, err)
	}
}

// TestStartUncreatableCPUPath: a CPU profile path that cannot be created is
// an error from Start, before any profiling begins.
func TestStartUncreatableCPUPath(t *testing.T) {
	_, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.prof"), "")
	if err == nil || !strings.Contains(err.Error(), "create cpu profile") {
		t.Fatalf("got %v, want a create cpu profile error", err)
	}
	// Profiling did not start, so a second Start can.
	stop, err := Start(filepath.Join(t.TempDir(), "cpu.prof"), "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
