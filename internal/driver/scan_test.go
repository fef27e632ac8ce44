package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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

// TestCountItemsMatchesExtendTransaction: the in-place pass-1 count equals
// counting every item of ExtendTransaction, at 1 and 3 workers, over
// transactions that repeat items and hold an item beside its own ancestor.
func TestCountItemsMatchesExtendTransaction(t *testing.T) {
	fx := newScanFixture(t)
	rng := rand.New(rand.NewSource(38))
	db := txn.NewDB(nil)
	want := make([]int64, fx.tax.NumItems())
	for tid := 0; tid < 200; tid++ {
		items := slices.Clone(fx.db.At(tid).Items)
		items = append(items, items[rng.Intn(len(items))])
		if p := fx.tax.Parent(items[0]); p != item.None {
			items = append(items, p)
		}
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		db.Append(txn.Transaction{TID: int64(tid), Items: items})
		for _, x := range fx.tax.ExtendTransaction(nil, items) {
			want[x]++
		}
	}
	for _, W := range []int{1, 3} {
		got, err := CountItems(fx.tax, db, W, ShardObs{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("W=%d: CountItems = %v, want %v", W, got, want)
		}
	}
}

// TestCountPhaseBodyError: the first error in worker order is the one
// returned, nothing is flushed after it, and the exchange is still finished:
// node 1's inbox holds node 0's KDone and no data batch.
func TestCountPhaseBodyError(t *testing.T) {
	fx := newScanFixture(t)
	errFirst, errLater := errors.New("first"), errors.New("later")
	fx.each(t, func(t *testing.T, src txn.Scanner, W int) {
		nodes, f := newTestNodes(t, 2)
		defer f.Close()
		if err := nodes[1].ep.Send(0, KDone, nil); err != nil { // node 1 routes nothing
			t.Fatal(err)
		}
		ex := nodes[0].NewExchange(KData, ItemsApplier(func([]item.Item) {}))
		failing := min(1, W-1)
		var st metrics.NodeStats
		err := CountPhase(src, W, ShardObs{}, &st, nil, ex, func(w *Worker, tr txn.Transaction) error {
			switch {
			case w.ID == failing:
				return errFirst
			case w.ID > failing:
				return errLater
			}
			return w.Bat.AddItems(1, tr.Items[:1]) // far below the batch threshold: flushed only at the end
		})
		if !errors.Is(err, errFirst) {
			t.Fatalf("got %v, want the error of worker %d", err, failing)
		}
		var kinds []uint8
		for len(nodes[1].ep.Inbox()) > 0 {
			kinds = append(kinds, (<-nodes[1].ep.Inbox()).Kind)
		}
		if !slices.Equal(kinds, []uint8{KDone}) {
			t.Errorf("node 1 received kinds %v, want only node 0's KDone (%d)", kinds, KDone)
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

// TestCountTableNeedsClosure: a view built without a keep set has no
// closure to count through, and CountTable refuses it before the scan.
func TestCountTableNeedsClosure(t *testing.T) {
	fx := newScanFixture(t)
	cands := [][]item.Item{{0, 1}}
	index := itemset.BuildIndex(cands)
	view := taxonomy.NewView(fx.tax, make([]bool, fx.tax.NumItems()), nil)
	err := CountTable(view, cumulate.KeepSet(fx.tax, cands), index, 2, fx.db, WorkerVectors(1, index.Len()), CountOptions{})
	if !errors.Is(err, errNoClosure) {
		t.Fatalf("got %v, want errNoClosure", err)
	}
}

// TestCountTableRejectsMismatchedMember: member must be the keep set the
// view's closure was built from. One flag more, one flag fewer, or a vector
// of the wrong length is ErrMember before the scan; the matching set counts.
func TestCountTableRejectsMismatchedMember(t *testing.T) {
	fx := newScanFixture(t)
	cands := [][]item.Item{{0, 1}, {0, 2}, {1, 2}}
	member := cumulate.KeepSet(fx.tax, cands)
	view := taxonomy.NewView(fx.tax, nil, member)
	index := itemset.BuildIndex(cands)
	extra := slices.Clone(member)
	extra[7] = true
	for _, c := range []struct {
		name   string
		member []bool
		want   error
	}{
		{"matching", member, nil},
		{"one extra item", extra, ErrMember},
		{"one missing item", cumulate.KeepSet(fx.tax, cands[:1]), ErrMember},
		{"short", member[:len(member)-1], ErrMember},
		{"nil", nil, ErrMember},
	} {
		t.Run(c.name, func(t *testing.T) {
			var st metrics.NodeStats
			err := CountTable(view, c.member, index, 2, fx.db, WorkerVectors(1, index.Len()), CountOptions{Stats: &st})
			if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if c.want != nil && st.TxnsScanned != 0 {
				t.Errorf("scanned %d transactions before rejecting the member set", st.TxnsScanned)
			}
		})
	}
}

// TestCountTableRejectsMismatchedVectors: CountTable counts only into
// vectors exactly index.Len() long. A short vector would panic inside the
// kernel and a long one would leave its tail uncounted, so both are refused
// before the scan with ErrCountVectors, and nothing is counted.
func TestCountTableRejectsMismatchedVectors(t *testing.T) {
	fx := newScanFixture(t)
	cands := [][]item.Item{{0, 1}, {0, 2}, {1, 2}}
	member := cumulate.KeepSet(fx.tax, cands)
	view := taxonomy.NewView(fx.tax, make([]bool, fx.tax.NumItems()), member)
	index := itemset.BuildIndex(cands)
	for _, c := range []struct {
		name    string
		workers int
		wcounts [][]int64
	}{
		{"short", 1, WorkerVectors(1, index.Len()-1)},
		{"long", 1, WorkerVectors(1, index.Len()+1)},
		{"one short of two", 2, [][]int64{make([]int64, index.Len()), make([]int64, index.Len()-1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var st metrics.NodeStats
			err := CountTable(view, member, index, 2, fx.db, c.wcounts, CountOptions{Workers: c.workers, Stats: &st})
			if !errors.Is(err, ErrCountVectors) {
				t.Fatalf("got %v, want ErrCountVectors", err)
			}
			if st.TxnsScanned != 0 {
				t.Errorf("scanned %d transactions before rejecting the vectors", st.TxnsScanned)
			}
			for w, v := range c.wcounts {
				if slices.ContainsFunc(v, func(x int64) bool { return x != 0 }) {
					t.Errorf("vector %d counted %v", w, v)
				}
			}
		})
	}
}
