package driver

import (
	"fmt"
	"sync"

	"pgarm/internal/item"
	"pgarm/internal/metrics"
	"pgarm/internal/txn"
)

// runShards is the one scan worker pool: body(w, nShards, lane) runs once per
// shard, concurrently across shards, and all calls happen-before runShards
// returns. With workers <= 1 the single shard runs inline on the calling
// goroutine (trace lane 0, the driver's own row); otherwise worker w runs on
// its own goroutine and records on lane 1+w. so carries the per-shard span
// and timing histogram; the zero value disables them. The first error in
// worker order is returned.
func runShards(workers int, so ShardObs, body func(w, nShards, lane int) error) error {
	if workers <= 1 {
		done := so.begin(0, 0)
		defer done()
		return body(0, 1, 0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done := so.begin(1+w, w)
			defer done()
			defer func() {
				// A panic on a worker goroutine would escape the node
				// goroutine's recover and kill the process; convert it to a
				// scan error instead.
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("scan worker %d panicked: %v", w, r)
				}
			}()
			errs[w] = body(w, workers, 1+w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanShards drives one pass over a node's local partition with `workers`
// scan goroutines. Worker w receives exactly the records whose scan ordinal
// o satisfies o % workers == w, so the shard assignment is a pure function
// of storage order — independent of goroutine scheduling. fn runs
// concurrently across workers but serially within one worker; all fn calls
// happen-before ScanShards returns.
//
// scan is the partition's iteration primitive (txn.Scanner.Scan, seq.DB.Scan,
// ...): each worker performs its own scan and skips foreign ordinals. The
// storage types used here all support concurrent independent scans (slice
// iteration, or a private file handle per scan), and skipping a record costs
// one ordinal check — negligible next to extension + subset enumeration,
// which only the owning worker performs.
func ScanShards[T any](scan func(func(T) error) error, workers int, so ShardObs, fn func(w int, t T) error) error {
	return runShards(workers, so, func(w, nShards, _ int) error {
		ord := 0
		return scan(func(t T) error {
			mine := ord%nShards == w
			ord++
			if !mine {
				return nil
			}
			return fn(w, t)
		})
	})
}

// ScanTxnShards drives one pass over a transaction partition with `workers`
// scan goroutines, sharding by storage block when the source supports it.
//
// For a txn.BlockScanner source (columnar partition), worker w owns exactly
// the blocks whose ordinal o satisfies o % workers == w: each worker preads
// and decodes only its own blocks, so decode itself parallelizes instead of
// every worker re-decoding the whole partition. Each worker folds its block
// counters into wstats[w]; MergeWorkerStats carries them into the node's
// pass totals in worker order.
//
// Any other source falls back to transaction-granular ScanShards, where
// every worker runs its own full scan and skips foreign ordinals.
//
// Both paths preserve bit-identity at every worker count: shard assignment
// is a pure function of storage order and count merges are exact integer
// sums in fixed worker order.
func ScanTxnShards(src txn.Scanner, workers int, so ShardObs, wstats []metrics.NodeStats, fn func(w int, t txn.Transaction) error) error {
	bs, ok := src.(txn.BlockScanner)
	if !ok {
		return ScanShards(src.Scan, workers, so, fn)
	}
	return runShards(workers, so, func(w, nShards, lane int) error {
		var st txn.ScanStats
		done := so.beginBlocks(lane, &st)
		defer done()
		err := bs.ScanBlocks(txn.BlockScanOptions{Shard: w, NumShards: nShards, Stats: &st}, func(b txn.Block) error {
			for _, t := range b.Txns {
				if err := fn(w, t); err != nil {
					return err
				}
			}
			return nil
		})
		addBlockStats(wstats, w, st)
		return err
	})
}

// addBlockStats folds one shard's block counters into its worker stats slot;
// callers without per-worker stats (nil or short wstats) simply lose the
// counters, never crash.
func addBlockStats(wstats []metrics.NodeStats, w int, st txn.ScanStats) {
	if w >= len(wstats) {
		return
	}
	wstats[w].BlocksScanned += st.BlocksScanned
	wstats[w].BytesDecoded += st.BytesDecoded
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

// MergeWorkerStats folds per-worker scan counters into the node's pass
// counters, in worker order.
func MergeWorkerStats(cur *metrics.NodeStats, ws []metrics.NodeStats) {
	for i := range ws {
		cur.AddScanCounters(&ws[i])
	}
}

// WorkerScratch allocates one reusable item buffer per worker.
func WorkerScratch(workers, capacity int) [][]item.Item {
	out := make([][]item.Item, workers)
	for w := range out {
		out[w] = make([]item.Item, 0, capacity)
	}
	return out
}
