package driver

import (
	"fmt"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// runShards is the scan worker pool: body(w, nShards, lane) runs once per
// shard through itemset.Fan, so all calls happen-before runShards returns, a
// panicking shard is that worker's error and the first error in worker order
// is returned. With workers <= 1 the single shard runs inline on the calling
// goroutine and records on trace lane 0, the driver's own row; otherwise
// worker w records on lane 1+w. so carries the per-shard span and timing
// histogram; the zero value disables them.
func runShards(workers int, so ShardObs, body func(w, nShards, lane int) error) error {
	nShards := max(workers, 1)
	lane := func(w int) int {
		if nShards == 1 {
			return 0
		}
		return 1 + w
	}
	return itemset.Fan("scan", nShards,
		func(w int) func() { return so.begin(lane(w), w) },
		func(w int) error { return body(w, nShards, lane(w)) })
}

// Source is a partition a count phase scans: a txn.Scanner (T is
// txn.Transaction) or a seq.DB (T is seq.Sequence). Scan must support
// concurrent independent calls when the phase has more than one worker; every
// storage type in the repo does (slice iteration, or a private file handle
// per scan).
type Source[T any] interface {
	Scan(fn func(T) error) error
}

// Worker is one scan worker's private state in a count phase. The body gets
// its worker with every record and never synchronizes; per-worker state the
// skeleton does not own (count vectors, trees, scratch) lives in a caller
// slice indexed by ID.
type Worker struct {
	ID    int               // worker index in [0, workers)
	Stats metrics.NodeStats // this worker's counters; TxnsScanned and the block counters are counted here
	Ext   []item.Item       // the record's extension when the phase extends; reused for the next record
	Bat   *Batcher          // routes units to their owners when the phase has an Exchange
}

// CountPhase is the count-support step every algorithm shares — "for each
// transaction t in the local partition: extend t with its ancestors, then
// increment locally or ship to the owner" — with everything but the last
// clause owned here. It scans src with `workers` scan workers (<= 1 scans
// inline on the caller's goroutine) and calls body once per record.
//
// A txn.BlockScanner source (columnar partition) is sharded by block: worker
// w preads and decodes exactly the blocks whose ordinal o satisfies
// o % workers == w, so decode itself parallelizes. Any other source is
// sharded by record: every worker runs its own full scan and keeps the
// records whose scan ordinal o satisfies o % workers == w. Either way the
// assignment is a pure function of storage order, body runs serially within
// a worker, and every body call happens-before CountPhase returns.
//
// extend, when non-nil, computes each record's extension into Worker.Ext
// before body runs. ex, when non-nil, is the pass's Exchange: every worker
// routes through its own Batcher, and after the scan every batcher is
// flushed in worker order unless an error occurred, and the exchange is
// finished either way. The first error in worker order wins; with an
// exchange it is wrapped as a count-support error.
//
// On success the workers' counters are merged into st in worker order (exact
// integer sums, so bit-identical at every worker count) and the phase's wall
// time is added to st.ScanTime. A nil st drops the counters.
func CountPhase[T any](src Source[T], workers int, so ShardObs, st *metrics.NodeStats,
	extend func(dst []item.Item, t T) []item.Item, ex *Exchange,
	body func(w *Worker, t T) error) error {
	started := time.Now()
	ws := make([]Worker, max(workers, 1))
	for i := range ws {
		ws[i].ID = i
		if extend != nil {
			ws[i].Ext = make([]item.Item, 0, 64)
		}
		if ex != nil {
			ws[i].Bat = ex.NewBatcher()
		}
	}
	blocks, _ := any(src).(txn.BlockScanner)
	err := runShards(len(ws), so, func(i, nShards, lane int) error {
		w := &ws[i]
		each := func(t T) error {
			w.Stats.TxnsScanned++
			if extend != nil {
				w.Ext = extend(w.Ext[:0], t)
			}
			return body(w, t)
		}
		// A BlockScanner yields transactions, so T is txn.Transaction and
		// the instantiated closure has exactly the asserted type.
		eachTxn, ok := any(each).(func(txn.Transaction) error)
		if !ok || blocks == nil {
			ord := 0
			return src.Scan(func(t T) error {
				mine := ord%nShards == i
				ord++
				if !mine {
					return nil
				}
				return each(t)
			})
		}
		var bst txn.ScanStats
		done := so.beginBlocks(lane, &bst)
		defer done()
		err := blocks.ScanBlocks(txn.BlockScanOptions{Shard: i, NumShards: nShards, Stats: &bst}, func(b txn.Block) error {
			for _, t := range b.Txns {
				if err := eachTxn(t); err != nil {
					return err
				}
			}
			return nil
		})
		w.Stats.BlocksScanned += bst.BlocksScanned
		w.Stats.BytesDecoded += bst.BytesDecoded
		return err
	})
	if ex != nil {
		for i := 0; i < len(ws) && err == nil; i++ {
			err = ws[i].Bat.FlushAll()
		}
		if ferr := ex.Finish(); err == nil {
			err = ferr
		}
		if err != nil {
			err = fmt.Errorf("count support: %w", err)
		}
	}
	if err != nil {
		return err
	}
	if st != nil {
		for i := range ws {
			st.AddScanCounters(&ws[i].Stats)
		}
		st.ScanTime += time.Since(started)
	}
	return nil
}

// CountItems is the dense pass-1 count every itemset miner shares: each
// transaction's items and all their ancestors, counted once per transaction
// into a vector indexed by item. C_1 is just that array, so there is nothing
// to partition — only the scan is sharded.
func CountItems(tax *taxonomy.Taxonomy, src txn.Scanner, workers int, so ShardObs, st *metrics.NodeStats) ([]int64, error) {
	wcounts := WorkerVectors(max(workers, 1), tax.NumItems())
	closure := func(dst []item.Item, t txn.Transaction) []item.Item { return tax.ExtendTransaction(dst, t.Items) }
	err := CountPhase(src, workers, so, st, closure, nil, func(w *Worker, _ txn.Transaction) error {
		counts := wcounts[w.ID]
		for _, x := range w.Ext {
			counts[x]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return MergeWorkerVectors(wcounts), nil
}

// WorkerVectors returns `workers` count vectors of length n whose index-0
// vector is primary: worker w accumulates into vectors[w], and
// MergeWorkerVectors folds vectors 1..W-1 back into vectors[0]. With one
// worker this allocates exactly the single vector the sequential path used.
func WorkerVectors(workers, n int) [][]int64 {
	vs := make([][]int64, workers)
	for w := range vs {
		vs[w] = make([]int64, n)
	}
	return vs
}

// MergeWorkerVectors sums vectors[1..] into vectors[0] and returns it.
// Addition is associative and commutative over exact integers, and the merge
// order (ascending worker index) is fixed, so the result is bit-identical to
// a sequential scan regardless of how the workers were scheduled.
func MergeWorkerVectors(vectors [][]int64) []int64 {
	total := vectors[0]
	for _, v := range vectors[1:] {
		for i, c := range v {
			total[i] += c
		}
	}
	return total
}
