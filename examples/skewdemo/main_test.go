package main

import (
	"fmt"
	"testing"
)

// TestPass2Figures pins the numbers EXPERIMENTS.md quotes from this demo: how
// many of the pass-2 candidates each H-HPGM variant duplicates under the
// budget, and the max/mean of the per-node probe counts. H-HPGM routes every
// candidate it does not own, so this is also a run of its routing under a
// budget at 8 nodes.
func TestPass2Figures(t *testing.T) {
	passes, err := pass2()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		duplicated  int
		maxOverMean string
	}{{0, "3.37"}, {6912, "1.61"}, {7541, "1.17"}, {7541, "1.06"}}
	if len(passes) != len(want) {
		t.Fatalf("%d runs, want %d", len(passes), len(want))
	}
	for i, ps := range passes {
		if ps.Candidates != 16989 {
			t.Errorf("%s: %d candidates, want 16989", variants[i], ps.Candidates)
		}
		if ps.Duplicated != want[i].duplicated {
			t.Errorf("%s: duplicated %d, want %d", variants[i], ps.Duplicated, want[i].duplicated)
		}
		if got := fmt.Sprintf("%.2f", ps.ProbeSkew().MaxOverMean); got != want[i].maxOverMean {
			t.Errorf("%s: probe max/mean %s, want %s", variants[i], got, want[i].maxOverMean)
		}
	}
}
