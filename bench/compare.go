package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*suiteResults, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worse returns by what share of a the value b is worse than a, given the
// metric's direction; negative means better.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles gates result file B against result file A. Per workload and
// end-to-end metric it prints both medians, the relative change and the bound
// from BENCHMARK.json, and marks the pair
//
//	regressed   B is worse than A by more than the bound
//	unresolved  within the bound, but either file's own run-to-run quartile
//	            spread is wider than the bound, so "unchanged" is not shown
//	ok          otherwise
//
// It returns an error on any regression, on any exact count that differs
// (same seed and size only) and on a higher fail_share. Wall-clock per-layer
// changes are printed, never gated.
func compareFiles(root, pathA, pathB string, out io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	sameInputs := a.Seed == b.Seed && a.Smoke == b.Smoke
	fmt.Fprintf(out, "\ncompare A=%s (seed %d, %s) B=%s (seed %d, %s)\n", pathA, a.Seed, a.Host.Commit, pathB, b.Seed, b.Host.Commit)
	if a.Host != b.Host {
		fmt.Fprintf(out, "note: host fingerprints differ; wall-clock is only comparable on one host\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}
	if !sameInputs {
		fmt.Fprintln(out, "note: seeds or sizes differ; exact counts are printed, not gated")
	}

	byName := make(map[string]*workloadResult)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	var bad []string
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			bad = append(bad, wa.Name+": missing from B")
			continue
		}
		fmt.Fprintf(out, "\n== %s\n", wa.Name)
		if wb.FailShare > wa.FailShare {
			bad = append(bad, fmt.Sprintf("%s: fail_share rose %g -> %g", wa.Name, wa.FailShare, wb.FailShare))
		}
		fmt.Fprintf(out, "  %-28s %14s %14s %9s %7s  %s\n", "end-to-end", "A", "B", "worse by", "bound", "verdict")
		for _, d := range bf.EndToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			delta := worse(d.Better, ma.Value, mb.Value)
			spread := 0.0
			if ma.Dist != nil && mb.Dist != nil {
				spread = max(ma.Dist.spread(), mb.Dist.spread())
			}
			verdict := "ok"
			switch {
			case delta > d.Bound:
				verdict = "regressed"
				bad = append(bad, fmt.Sprintf("%s %s: worse by %.1f%% (bound %.0f%%)", wa.Name, d.Name, 100*delta, 100*d.Bound))
			case spread > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			}
			fmt.Fprintf(out, "  %-28s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", d.Name, ma.Value, mb.Value, 100*delta, 100*d.Bound, verdict)
		}
		fmt.Fprintf(out, "  %-28s %14s %14s %9s\n", "per-layer", "A", "B", "worse by")
		for _, d := range perLayerDefs {
			ma, mb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if ma.Value == 0 && mb.Value == 0 {
				continue
			}
			note := ""
			if d.Exact {
				note = "exact"
				if ma.Value != mb.Value {
					note = "exact: differs"
					if sameInputs {
						bad = append(bad, fmt.Sprintf("%s %s: exact count %g -> %g", wa.Name, d.Name, ma.Value, mb.Value))
					}
				}
			}
			fmt.Fprintf(out, "  %-28s %14.6g %14.6g %+8.1f%%  %s\n", d.Name, ma.Value, mb.Value, 100*worse(d.Better, ma.Value, mb.Value), note)
		}
	}
	if len(bad) > 0 {
		fmt.Fprintln(out)
		for _, s := range bad {
			fmt.Fprintln(out, "REGRESSION:", s)
		}
		return fmt.Errorf("compare: %d regressions", len(bad))
	}
	fmt.Fprintln(out, "\nno regression")
	return nil
}
