package gen

import (
	"errors"
	"math"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/txn"
)

func smallParams() Params {
	p := R30F5()
	p.NumTxns = 5000
	p.NumItems = 2000
	p.NumPatterns = 200
	p.Roots = 10
	return p
}

func TestGenerateBasicShape(t *testing.T) {
	p := smallParams()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DB.Len() != p.NumTxns {
		t.Fatalf("generated %d txns, want %d", ds.DB.Len(), p.NumTxns)
	}
	if ds.Taxonomy.NumItems() != p.NumItems {
		t.Fatalf("taxonomy items = %d", ds.Taxonomy.NumItems())
	}
	if got := len(ds.Taxonomy.Roots()); got != p.Roots {
		t.Fatalf("roots = %d", got)
	}
	avg := ds.DB.AvgSize()
	if avg < p.AvgTxnSize*0.5 || avg > p.AvgTxnSize*1.6 {
		t.Errorf("avg basket size %.2f far from target %g", avg, p.AvgTxnSize)
	}
}

func TestTransactionsAreCanonicalLeaves(t *testing.T) {
	ds, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	err = ds.DB.Scan(func(tr txn.Transaction) error {
		if len(tr.Items) == 0 {
			t.Fatalf("txn %d empty", tr.TID)
		}
		if !item.IsSorted(tr.Items) {
			t.Fatalf("txn %d not canonical: %v", tr.TID, tr.Items)
		}
		for _, x := range tr.Items {
			if len(ds.Taxonomy.Children(x)) != 0 {
				t.Fatalf("txn %d contains interior item %v", tr.TID, x)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.DB.Len(); i++ {
		if !item.Equal(a.DB.At(i).Items, b.DB.At(i).Items) {
			t.Fatalf("txn %d differs between identical seeds", i)
		}
	}
	p := smallParams()
	p.Seed = 999
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < a.DB.Len(); i++ {
		if item.Equal(a.DB.At(i).Items, c.DB.At(i).Items) {
			same++
		}
	}
	if same == a.DB.Len() {
		t.Error("different seeds produced identical data")
	}
}

func TestSkewExists(t *testing.T) {
	// The pattern pool's exponential weights must concentrate item
	// frequency — the data skew the paper's load balancing targets.
	ds, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ds.Taxonomy.NumItems())
	total := 0
	ds.DB.Scan(func(tr txn.Transaction) error {
		for _, x := range tr.Items {
			counts[x]++
			total++
		}
		return nil
	})
	max := 0
	nonzero := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c > 0 {
			nonzero++
		}
	}
	mean := float64(total) / float64(nonzero)
	if float64(max) < 5*mean {
		t.Errorf("no skew: max item count %d vs mean %.1f", max, mean)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"R30F5", "R30F3", "R30F10"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.NumTxns != 3200000 || p.NumItems != 30000 || p.Roots != 30 {
			t.Errorf("%s params wrong: %+v", name, p)
		}
	}
	if _, err := ByName("R99"); err == nil {
		t.Error("unknown name must fail")
	}
	if R30F3().Fanout != 3 || R30F5().Fanout != 5 || R30F10().Fanout != 10 {
		t.Error("fanout wrong")
	}
}

func TestScaled(t *testing.T) {
	p := R30F5().Scaled(0.01)
	if p.NumTxns != 32000 {
		t.Errorf("scaled txns = %d", p.NumTxns)
	}
	if p.NumItems != 30000 {
		t.Error("scaling must not change the item universe")
	}
	tiny := R30F5().Scaled(1e-9)
	if tiny.NumTxns != 1000 {
		t.Errorf("floor = %d, want 1000", tiny.NumTxns)
	}
}

func TestDescribe(t *testing.T) {
	s := R30F5().Describe()
	if len(s) == 0 {
		t.Fatal("empty description")
	}
	for _, want := range []string{"R30F5", "3200000", "30000", "Fanout"} {
		if !contains(s, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.NumTxns = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero txns must fail")
	}
	p = smallParams()
	p.Roots = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero roots must fail")
	}
}

func TestPoissonMean(t *testing.T) {
	ds, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Indirect Poisson sanity: basket sizes should have nontrivial variance.
	var sum, sum2 float64
	ds.DB.Scan(func(tr txn.Transaction) error {
		s := float64(len(tr.Items))
		sum += s
		sum2 += s * s
		return nil
	})
	n := float64(ds.DB.Len())
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if sd < 1 {
		t.Errorf("basket sizes nearly constant (sd %.2f): Poisson sampling broken?", sd)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestStreamMatchesGenerate asserts the streaming generator and the
// collecting Generate draw the identical pseudo-random sequence: same
// taxonomy fingerprint, same transactions, bit for bit, and an early stop
// from fn aborts the stream.
func TestStreamMatchesGenerate(t *testing.T) {
	p := smallParams()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	tax, err := Stream(p, func(tr txn.Transaction) error {
		want := ds.DB.At(i)
		if tr.TID != want.TID || !item.Equal(tr.Items, want.Items) {
			t.Fatalf("txn %d: streamed %v, generated %v", i, tr, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != ds.DB.Len() {
		t.Fatalf("streamed %d txns, generated %d", i, ds.DB.Len())
	}
	if tax.Fingerprint() != ds.Taxonomy.Fingerprint() {
		t.Fatal("taxonomy fingerprints differ")
	}

	stop := errors.New("stop")
	n := 0
	if _, err := Stream(p, func(txn.Transaction) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) {
		t.Fatalf("early stop: err = %v, want %v", err, stop)
	}
	if n != 10 {
		t.Fatalf("fn called %d times after stop at 10", n)
	}
}
