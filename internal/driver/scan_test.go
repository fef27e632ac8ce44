package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// scanFixture is a random forest taxonomy and a random database over it, in
// memory and as a columnar file of several blocks.
type scanFixture struct {
	tax   *taxonomy.Taxonomy
	db    *txn.DB
	items int64 // total items over all transactions
	srcs  map[string]txn.Scanner
}

func newScanFixture(t *testing.T) *scanFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	const numItems, numTxns = 60, 300
	parent := make([]item.Item, numItems)
	for i := range parent {
		parent[i] = item.None
		if i >= 5 { // five roots; every other item hangs under an earlier one
			parent[i] = item.Item(rng.Intn(i))
		}
	}
	fx := &scanFixture{tax: taxonomy.MustNew(parent), db: txn.NewDB(nil)}
	for tid := 0; tid < numTxns; tid++ {
		var items []item.Item
		for x := 0; x < numItems; x++ {
			if rng.Intn(10) == 0 {
				items = append(items, item.Item(x))
			}
		}
		if len(items) == 0 {
			items = []item.Item{item.Item(tid % numItems)}
		}
		fx.items += int64(len(items))
		fx.db.Append(txn.Transaction{TID: int64(tid), Items: items})
	}
	path := filepath.Join(t.TempDir(), "part.ptc")
	if err := txn.WriteColumnar(path, fx.db, fx.tax, 32); err != nil {
		t.Fatal(err)
	}
	cf, err := txn.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	fx.srcs = map[string]txn.Scanner{"db": fx.db, "columnar": cf}
	return fx
}

// each runs fn once per cell of the W x source table.
func (fx *scanFixture) each(t *testing.T, fn func(t *testing.T, src txn.Scanner, W int)) {
	for name, src := range fx.srcs {
		for _, W := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/W=%d", name, W), func(t *testing.T) { fn(t, src, W) })
		}
	}
}

// TestCountPhaseStatsMerge: the workers' counters merge to the same totals at
// every worker count, and a block source's decode counters land in the pass
// window exactly once.
func TestCountPhaseStatsMerge(t *testing.T) {
	fx := newScanFixture(t)
	fx.each(t, func(t *testing.T, src txn.Scanner, W int) {
		var st metrics.NodeStats
		err := CountPhase(src, W, ShardObs{}, &st, nil, nil, func(w *Worker, tr txn.Transaction) error {
			if w.ID < 0 || w.ID >= W {
				t.Errorf("worker id %d outside [0,%d)", w.ID, W)
			}
			w.Stats.Probes += int64(len(tr.Items))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.TxnsScanned != int64(fx.db.Len()) || st.Probes != fx.items {
			t.Errorf("merged %d txns / %d probes, want %d / %d", st.TxnsScanned, st.Probes, fx.db.Len(), fx.items)
		}
		var wantBlocks, wantBytes int64
		if bs, ok := src.(txn.BlockScanner); ok {
			var ref txn.ScanStats
			if err := bs.ScanBlocks(txn.BlockScanOptions{Stats: &ref}, func(txn.Block) error { return nil }); err != nil {
				t.Fatal(err)
			}
			wantBlocks, wantBytes = int64(bs.NumBlocks()), ref.BytesDecoded
		}
		if st.BlocksScanned != wantBlocks || st.BytesDecoded != wantBytes {
			t.Errorf("block counters %d blocks / %d bytes, want %d / %d", st.BlocksScanned, st.BytesDecoded, wantBlocks, wantBytes)
		}
	})
}

// TestCountItemsMatchesSerial compares the dense pass 1 with a serial
// reference: one increment per transaction for every item in the ancestor
// closure of its items.
func TestCountItemsMatchesSerial(t *testing.T) {
	fx := newScanFixture(t)
	want := make([]int64, fx.tax.NumItems())
	for i := 0; i < fx.db.Len(); i++ {
		seen := map[item.Item]bool{}
		for _, x := range fx.db.At(i).Items {
			for _, a := range fx.tax.SelfAndAncestors(nil, x) {
				if !seen[a] {
					seen[a] = true
					want[a]++
				}
			}
		}
	}
	fx.each(t, func(t *testing.T, src txn.Scanner, W int) {
		var st metrics.NodeStats
		got, err := CountItems(fx.tax, src, W, ShardObs{}, &st)
		if err != nil {
			t.Fatal(err)
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("item %d counted %d, want %d", x, got[x], want[x])
			}
		}
		if st.TxnsScanned != int64(fx.db.Len()) {
			t.Errorf("scanned %d txns, want %d", st.TxnsScanned, fx.db.Len())
		}
	})
}

// TestCountPhaseBodyError: the first error in worker order is the one
// returned, nothing is flushed after it, and the exchange is still finished
// (its receiver has exited by the time CountPhase returns).
func TestCountPhaseBodyError(t *testing.T) {
	fx := newScanFixture(t)
	errFirst, errLater := errors.New("first"), errors.New("later")
	fx.each(t, func(t *testing.T, src txn.Scanner, W int) {
		nodes, f := newTestNodes(t, 1)
		defer f.Close()
		applied := 0
		ex := nodes[0].NewExchange(KData, ItemsApplier(func([]item.Item) { applied++ }))
		failing := min(1, W-1)
		var st metrics.NodeStats
		err := CountPhase(src, W, ShardObs{}, &st, nil, ex, func(w *Worker, tr txn.Transaction) error {
			switch {
			case w.ID == failing:
				return errFirst
			case w.ID > failing:
				return errLater
			}
			return w.Bat.AddItems(0, tr.Items[:1]) // far below the batch threshold: flushed only at the end
		})
		if !errors.Is(err, errFirst) {
			t.Fatalf("got %v, want the error of worker %d", err, failing)
		}
		if applied != 0 {
			t.Errorf("%d units applied: a batcher was flushed after the error", applied)
		}
		if _, open := <-ex.selfq; open {
			t.Error("exchange not finished: loopback queue still open")
		}
		if st.TxnsScanned != 0 {
			t.Errorf("%d transactions merged into the window despite the error", st.TxnsScanned)
		}
	})
}

// TestCountPhaseBodyPanic: a panicking body is an error naming its worker, at
// one worker (inline on the caller's goroutine) as well as on a pool.
func TestCountPhaseBodyPanic(t *testing.T) {
	fx := newScanFixture(t)
	fx.each(t, func(t *testing.T, src txn.Scanner, W int) {
		failing := min(1, W-1)
		err := CountPhase(src, W, ShardObs{}, nil, nil, nil, func(w *Worker, _ txn.Transaction) error {
			if w.ID == failing {
				panic("boom")
			}
			return nil
		})
		want := fmt.Sprintf("scan worker %d panicked: boom", failing)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}

// TestCountTableStatsOptional: a zero-value CountOptions counts like one with
// a pass window; the counters are simply dropped.
func TestCountTableStatsOptional(t *testing.T) {
	fx := newScanFixture(t)
	large := make([]bool, fx.tax.NumItems())
	var cands [][]item.Item
	for a := 0; a < 12; a++ {
		large[a] = true
		for b := a + 1; b < 12; b++ {
			cands = append(cands, []item.Item{item.Item(a), item.Item(b)})
		}
	}
	member := cumulate.KeepSet(fx.tax, cands)
	view := taxonomy.NewView(fx.tax, large, member)
	index := itemset.BuildIndex(cands)
	count := func(opt CountOptions) []int64 {
		t.Helper()
		wcounts := WorkerVectors(1, index.Len())
		if err := CountTable(view, member, index, 2, fx.db, wcounts, opt); err != nil {
			t.Fatal(err)
		}
		return MergeWorkerVectors(wcounts)
	}
	var st metrics.NodeStats
	wstats := make([]metrics.NodeStats, 1)
	bare, windowed, legacy := count(CountOptions{}), count(CountOptions{Stats: &st}), count(CountOptions{WStats: wstats})
	for id := range bare {
		if bare[id] != windowed[id] || bare[id] != legacy[id] {
			t.Fatalf("candidate %d: %d without stats, %d with Stats, %d with WStats", id, bare[id], windowed[id], legacy[id])
		}
	}
	if st.TxnsScanned != int64(fx.db.Len()) || st.Probes == 0 || wstats[0].Probes != st.Probes {
		t.Errorf("Stats %d txns / %d probes, WStats[0] %d probes", st.TxnsScanned, st.Probes, wstats[0].Probes)
	}
}
