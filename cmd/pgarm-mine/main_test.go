package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// bin is the pgarm-mine binary under test, built once from this package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pgarm-mine-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "pgarm-mine")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// durations matches the wall-clock fragments of RunStats.String — the only
// non-deterministic part of stdout (the sed in .claude/skills/verify/SKILL.md).
var durations = regexp.MustCompile(`[0-9.]+m?s( total)?`)

// TestGoldenStdout pins stdout of one run per engine family and fabric
// against files recorded at the commit before the engines.Run refactor: the
// per-pass statistics (candidates, duplicates, large counts, bytes, probe
// skew), the L_k listings and the derived rules must not move.
func TestGoldenStdout(t *testing.T) {
	itemset := "-dataset R30F5 -scale 0.001 -nodes 3 -minsup 0.02 -maxk 3 -rules -minconf 0.6 -top 5"
	for _, c := range []struct{ golden, args string }{
		{"h-hpgm-fgd", itemset + " -engine H-HPGM-FGD"},
		{"hpgm-tcp", itemset + " -engine HPGM -tcp"},
		{"fpg", itemset + " -engine FPG"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			var stderr bytes.Buffer
			cmd := exec.Command(bin, strings.Fields(c.args)...)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("pgarm-mine %s: %v\n%s", c.args, err, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := durations.ReplaceAll(out, nil); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n%s", c.golden, got)
			}
		})
	}
}

// TestFlagErrors: a run description the CLI or the engine rejects exits
// non-zero and names the reason.
func TestFlagErrors(t *testing.T) {
	// A columnar partition generated for R30F5: the same 30,000-item universe
	// as R30F3 under a different hierarchy.
	p := gen.R30F5()
	r30f5 := filepath.Join(t.TempDir(), "r30f5.ptx")
	db := txn.NewDB([]txn.Transaction{{TID: 1, Items: []item.Item{100, 20000}}})
	if err := txn.WriteColumnar(r30f5, db, taxonomy.MustBalanced(p.NumItems, p.Roots, p.Fanout), 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{"-engine nope", "unknown engine"},
		{"-scale 0.0005 -nodes 2 -engine FPG -budget 4096", "knob not supported"},
		{"-scale 0.0005 -nodes 2 -maxk -1", "negative MaxK"},
		{"-dataset R30F3 -in " + r30f5, "different taxonomy"},
	} {
		out, err := exec.Command(bin, strings.Fields(c.args)...).CombinedOutput()
		if err == nil {
			t.Errorf("pgarm-mine %s: exit 0, want failure", c.args)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("pgarm-mine %s: output does not mention %q:\n%s", c.args, c.want, out)
		}
	}
}
