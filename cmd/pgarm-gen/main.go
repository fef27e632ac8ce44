// Command pgarm-gen generates the paper's synthetic datasets (Table 5) and
// writes them as binary transaction files, optionally pre-partitioned into
// per-node local-disk files.
//
// Usage:
//
//	pgarm-gen -dataset R30F5 -scale 0.01 -out /tmp/r30f5.ptx
//	pgarm-gen -dataset R30F3 -scale 0.01 -nodes 16 -out /tmp/r30f3    # writes r30f3.n00.ptx ... n15.ptx
//	pgarm-gen -dataset R30F5 -scale 0.01 -format columnar -out /tmp/r30f5.ptc
//	pgarm-gen -describe
//
// -format selects the on-disk layout: "row" is the original stream of
// delta-coded transactions, "columnar" the block-compressed columnar format
// whose blocks scan workers decode in parallel (see internal/txn). The miners
// auto-detect the format by magic, so either feeds -in unchanged.
//
// Generation is out-of-core: transactions stream from gen.Stream straight
// into the per-partition writers (round-robin, matching txn.Partition), so
// memory stays constant — the full-scale 3.2M-transaction datasets never
// need to fit in RAM.
package main

import (
	"flag"
	"fmt"

	"pgarm/internal/gen"
	"pgarm/internal/logx"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// partWriter is the streaming surface both on-disk formats expose.
type partWriter interface {
	Append(txn.Transaction) error
	Count() int64
	Close() error
}

func main() {
	var (
		dataset  = flag.String("dataset", "R30F5", "dataset configuration: R30F5, R30F3 or R30F10")
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's 3.2M transactions to generate")
		seed     = flag.Int64("seed", 1998, "generator seed")
		nodes    = flag.Int("nodes", 0, "partition into this many per-node files (0 = single file)")
		out      = flag.String("out", "", "output path (single file) or path prefix (with -nodes)")
		format   = flag.String("format", "row", "on-disk layout: row or columnar")
		describe = flag.Bool("describe", false, "print the Table 5 parameter sheet and exit")
		logOpts  = logx.Flags()
	)
	flag.Parse()
	logger := logOpts.Init("pgarm-gen")

	if *describe {
		for _, name := range []string{"R30F5", "R30F3", "R30F10"} {
			p, _ := gen.ByName(name)
			fmt.Print(p.Describe())
			fmt.Println()
		}
		return
	}
	if *out == "" {
		logx.Fatal(logger, "missing -out path")
	}
	p, err := gen.ByName(*dataset)
	if err != nil {
		logx.Fatal(logger, "bad dataset", "err", err)
	}
	p = p.Scaled(*scale)
	p.Seed = *seed
	logger.Info("generating", "dataset", p.Name, "txns", p.NumTxns, "items", p.NumItems)

	// The columnar writers record the taxonomy's fingerprint in the header;
	// Balanced is deterministic, so this is the same hierarchy gen.Stream
	// builds internally.
	tax, err := taxonomy.Balanced(p.NumItems, p.Roots, p.Fanout)
	if err != nil {
		logx.Fatal(logger, "taxonomy", "err", err)
	}
	newWriter := func(path string) (partWriter, error) {
		switch *format {
		case "row":
			return txn.NewRowWriter(path)
		case "columnar":
			return txn.NewColumnarWriter(path, tax, txn.DefaultTxnsPerBlock)
		default:
			return nil, fmt.Errorf("unknown -format %q (row or columnar)", *format)
		}
	}

	n := *nodes
	if n <= 0 {
		n = 1
	}
	paths := make([]string, n)
	writers := make([]partWriter, n)
	for i := range writers {
		paths[i] = *out
		if *nodes > 0 {
			paths[i] = fmt.Sprintf("%s.n%02d.ptx", *out, i)
		}
		w, err := newWriter(paths[i])
		if err != nil {
			for _, open := range writers[:i] {
				open.Close()
			}
			logx.Fatal(logger, "create failed", "path", paths[i], "err", err)
		}
		writers[i] = w
	}

	// Round-robin by generation order — identical placement to
	// txn.Partition (transaction i goes to node i%n).
	i, itemSum := 0, int64(0)
	_, err = gen.Stream(p, func(t txn.Transaction) error {
		itemSum += int64(len(t.Items))
		w := writers[i%n]
		i++
		return w.Append(t)
	})
	if err != nil {
		for _, w := range writers {
			w.Close()
		}
		logx.Fatal(logger, "generate failed", "err", err)
	}
	for j, w := range writers {
		if err := w.Close(); err != nil {
			logx.Fatal(logger, "write failed", "path", paths[j], "err", err)
		}
	}

	if *nodes <= 0 {
		avg := 0.0
		if i > 0 {
			avg = float64(itemSum) / float64(i)
		}
		logger.Info("wrote dataset", "path", *out, "txns", i, "avg_size", avg)
		return
	}
	for j, w := range writers {
		logger.Info("wrote partition", "path", paths[j], "node", j, "txns", w.Count())
	}
}
