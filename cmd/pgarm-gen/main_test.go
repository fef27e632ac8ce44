package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pgarm/internal/gen"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// bin is the pgarm-gen binary under test, built once from this package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgarm-gen-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "pgarm-gen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestPartitionedOutput generates a tiny R30F5 into three per-node files in
// each format: every part must open under the dataset's taxonomy, and the
// parts together must hold exactly the scaled transaction count.
func TestPartitionedOutput(t *testing.T) {
	const (
		dataset = "R30F5"
		scale   = 0.0003
		nodes   = 3
	)
	p, err := gen.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	p = p.Scaled(scale)
	tax, err := taxonomy.Balanced(p.NumItems, p.Roots, p.Fanout)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"row", "columnar"} {
		out := filepath.Join(t.TempDir(), "data")
		cmd := exec.Command(bin, "-dataset", dataset, "-scale", fmt.Sprint(scale),
			"-nodes", fmt.Sprint(nodes), "-format", format, "-out", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", format, err, msg)
		}
		total := 0
		for i := 0; i < nodes; i++ {
			part, err := txn.OpenChecked(fmt.Sprintf("%s.n%02d.ptx", out, i), tax)
			if err != nil {
				t.Fatalf("%s: part %d: %v", format, i, err)
			}
			total += part.Len()
		}
		if total != p.NumTxns {
			t.Errorf("%s: parts hold %d transactions, want %d", format, total, p.NumTxns)
		}
	}
}
