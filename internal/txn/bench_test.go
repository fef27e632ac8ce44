package txn_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pgarm/internal/driver"
	"pgarm/internal/gen"
	"pgarm/internal/txn"
)

// benchFiles generates one smallish R30F5 sample and materializes it in both
// on-disk formats, so the row and columnar arms scan identical data.
func benchFiles(b *testing.B) (rowPath, colPath string) {
	b.Helper()
	p := gen.R30F5()
	p.NumTxns = 8000
	ds, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	rowPath = filepath.Join(dir, "part.ptx")
	if err := txn.WriteFile(rowPath, ds.DB); err != nil {
		b.Fatal(err)
	}
	colPath = filepath.Join(dir, "part.ptc")
	if err := txn.WriteColumnar(colPath, ds.DB, ds.Taxonomy, txn.DefaultTxnsPerBlock); err != nil {
		b.Fatal(err)
	}
	return rowPath, colPath
}

func benchScan(b *testing.B, path string, workers int) {
	b.Helper()
	src, err := txn.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	want := src.(interface{ Len() int }).Len()
	sinks := make([]int64, workers)
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range sinks {
			sinks[w] = 0
		}
		err := driver.CountPhase(src, workers, driver.ShardObs{}, nil, nil, nil,
			func(w *driver.Worker, _ txn.Transaction) error {
				sinks[w.ID]++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		got := int64(0)
		for _, n := range sinks {
			got += n
		}
		if got != int64(want) {
			b.Fatalf("scanned %d of %d transactions", got, want)
		}
	}
}

// BenchmarkScanRow and BenchmarkScanColumnar compare full-decode throughput
// of the two partition formats over identical data; bytes/op is the on-disk
// partition size, so MB/s numbers are directly comparable between formats.
func BenchmarkScanRow(b *testing.B) {
	rowPath, _ := benchFiles(b)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchScan(b, rowPath, w) })
	}
}

func BenchmarkScanColumnar(b *testing.B) {
	_, colPath := benchFiles(b)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchScan(b, colPath, w) })
	}
}
