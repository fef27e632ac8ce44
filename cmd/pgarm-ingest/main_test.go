package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pgarm/internal/stream"
	"pgarm/internal/txn"
)

// bin is the pgarm-ingest binary under test, built once from this package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgarm-ingest-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "pgarm-ingest")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ingest runs the binary with args and fails the test if it exits non-zero.
func ingest(t *testing.T, args ...string) {
	t.Helper()
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("pgarm-ingest %v: %v\n%s", args, err, out)
	}
}

// TestAppendsAcrossRuns: two runs with different seeds append to one log —
// three batches of 200, then two more — and a reader sees all 1,000
// transactions, their TIDs contiguous across the runs.
func TestAppendsAcrossRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	ingest(t, "-log", dir, "-scale", "0.001", "-batch", "200", "-batches", "3")
	ingest(t, "-log", dir, "-scale", "0.001", "-batch", "200", "-batches", "2", "-seed", "777")

	r, err := stream.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tids []int64
	if _, err := r.ReadFrom(stream.Offset{}, func(t txn.Transaction) error {
		tids = append(tids, t.TID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tids) != 1000 {
		t.Fatalf("log holds %d transactions, want 1000", len(tids))
	}
	for i := 1; i < len(tids); i++ {
		if tids[i] != tids[i-1]+1 {
			t.Fatalf("TID %d follows %d at position %d: not contiguous", tids[i], tids[i-1], i)
		}
	}
}

// TestRejectsBadFlags: a non-positive -batch and a missing -log each end the
// command with a non-zero exit.
func TestRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"batch 0":     {"-log", filepath.Join(t.TempDir(), "log"), "-batch", "0"},
		"missing log": {"-batch", "200", "-batches", "1"},
	} {
		err := exec.Command(bin, args...).Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%s: got %v, want a non-zero exit", name, err)
		}
	}
}
