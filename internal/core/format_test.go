package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/txn"
)

// TestStorageFormatsBitIdentical is the cross-format identity property the
// columnar design promises: mining the same database from in-memory
// partitions, row files or block-compressed columnar files must produce the
// exact same large-itemset lattice — same itemsets, same counts, same order —
// at every worker count.
func TestStorageFormatsBitIdentical(t *testing.T) {
	ds := testDataset(t, 2500)
	const (
		minSup = 0.10
		nodes  = 3
		block  = 4 // many small blocks: every worker count gets several each
	)

	want, err := cumulate.Mine(ds.Taxonomy, ds.DB, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Large) < 2 {
		t.Fatalf("weak test data: only %d large levels", len(want.Large))
	}

	// The sequential miner over one whole-database columnar file agrees with
	// the in-memory run.
	dir := t.TempDir()
	wholePath := filepath.Join(dir, "whole.ptc")
	if err := txn.WriteColumnar(wholePath, ds.DB, ds.Taxonomy, block); err != nil {
		t.Fatal(err)
	}
	whole, err := txn.Open(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := cumulate.Mine(ds.Taxonomy, whole, cumulate.Config{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCumulate(t, want, colRes)

	// Materialize each node partition in both on-disk formats.
	formats := map[string][]txn.Scanner{}
	for i, p := range txn.Partition(ds.DB, nodes) {
		rowPath := filepath.Join(dir, fmt.Sprintf("n%02d.ptx", i))
		if err := txn.WriteFile(rowPath, p); err != nil {
			t.Fatal(err)
		}
		colPath := filepath.Join(dir, fmt.Sprintf("n%02d.ptc", i))
		if err := txn.WriteColumnar(colPath, p, ds.Taxonomy, block); err != nil {
			t.Fatal(err)
		}
		rf, err := txn.Open(rowPath)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := txn.Open(colPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cf.(txn.BlockScanner); !ok {
			t.Fatalf("columnar partition %d does not block-scan", i)
		}
		formats["memory"] = append(formats["memory"], p)
		formats["row"] = append(formats["row"], rf)
		formats["columnar"] = append(formats["columnar"], cf)
	}

	for _, alg := range []Algorithm{HHPGMFGD, HPGM, NPGM} {
		for _, format := range []string{"memory", "row", "columnar"} {
			for _, workers := range []int{1, 2, 4, 8} {
				// Keep the matrix affordable: sweep workers on the flagship
				// algorithm, spot-check the others at one parallel setting.
				if alg != HHPGMFGD && workers != 4 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/workers=%d", alg, format, workers), func(t *testing.T) {
					got, err := Mine(ds.Taxonomy, formats[format], Config{
						Algorithm:  alg,
						MinSupport: minSup,
						Workers:    workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					assertSameLarge(t, want, got)
				})
			}
		}
	}
}

// assertSameCumulate compares two sequential results level by level.
func assertSameCumulate(t *testing.T, want, got *cumulate.Result) {
	t.Helper()
	if len(want.Large) != len(got.Large) {
		t.Fatalf("level count %d != %d", len(got.Large), len(want.Large))
	}
	for k := 1; k <= len(want.Large); k++ {
		w, g := want.LargeK(k), got.LargeK(k)
		if len(w) != len(g) {
			t.Fatalf("L_%d size %d != %d", k, len(g), len(w))
		}
		for i := range w {
			if !item.Equal(w[i].Items, g[i].Items) || w[i].Count != g[i].Count {
				t.Fatalf("L_%d[%d]: %v/%d != %v/%d", k, i, g[i].Items, g[i].Count, w[i].Items, w[i].Count)
			}
		}
	}
}
