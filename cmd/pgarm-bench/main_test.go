package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

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

// TestGoldenTable6 runs the Table 6 reproduction at scale 0.002 and pins its
// stdout — deterministic: payload volumes and the reduction ratio are exact
// byte counts — and the key set of the -json report, both against files
// recorded at the commit before the engines.Run refactor (the report's two
// "version" keys were dropped by that change on purpose).
func TestGoldenTable6(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pgarm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := filepath.Join(dir, "report.json")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-experiment", "table6", "-scale", "0.002", "-json", report)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("pgarm-bench: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile("testdata/table6_scale0.002.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("stdout differs from testdata/table6_scale0.002.golden:\n%s", out)
	}

	doc, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, err := os.ReadFile("testdata/json_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := keyPaths(t, doc); got != string(wantKeys) {
		t.Errorf("-json key set differs from testdata/json_keys.golden:\n%s", got)
	}
}
