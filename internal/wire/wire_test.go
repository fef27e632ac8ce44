package wire

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// The list decoders exist only as cursor methods; these adapters give the
// tables below the (value, bytes used, error) shape of Items/SparseCounts/
// Counted.
func cursor[T any](read func(*Dec) T) func([]byte) (T, int, error) {
	return func(b []byte) (T, int, error) {
		d := NewDec(b)
		v := read(&d)
		return v, len(b) - d.Len(), d.Err()
	}
}

var (
	Uvarint    = cursor((*Dec).U64)
	Counts     = cursor(func(d *Dec) []int64 { return d.Counts(maxVec) })
	CountsAuto = cursor(func(d *Dec) []int64 { return d.CountsAuto(maxVec) })
)

// maxVec is the count vector length the tests expect at most.
const maxVec = 1 << 16

func TestUvarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1} {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		if err != nil || got != v || n != len(b) {
			t.Errorf("round trip %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := Uvarint(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, _, err := Uvarint([]byte{0x80}); err == nil {
		t.Error("truncated varint must fail")
	}
}

func TestItemsRoundTrip(t *testing.T) {
	cases := [][]item.Item{nil, {0}, {5}, {1, 2, 3}, {10, 1000, 1 << 20}}
	for _, c := range cases {
		b := AppendItems(nil, c)
		got, used, err := Items(b, nil)
		if err != nil {
			t.Fatalf("decode %v: %v", c, err)
		}
		if used != len(b) {
			t.Errorf("%v used %d of %d bytes", c, used, len(b))
		}
		if len(c) == 0 && len(got) == 0 {
			continue
		}
		if !item.Equal(got, c) {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestItemsAppendsToDst(t *testing.T) {
	b := AppendItems(nil, []item.Item{7, 9})
	out, _, err := Items(b, []item.Item{1})
	if err != nil {
		t.Fatal(err)
	}
	if !item.Equal(out, []item.Item{1, 7, 9}) {
		t.Errorf("append semantics broken: %v", out)
	}
}

func TestCountsRoundTrip(t *testing.T) {
	cs := []int64{0, 1, 1 << 40, 7}
	b := AppendCounts(nil, cs)
	got, used, err := Counts(b)
	if err != nil || used != len(b) {
		t.Fatalf("decode: %v", err)
	}
	for i := range cs {
		if got[i] != cs[i] {
			t.Errorf("counts[%d] = %d", i, got[i])
		}
	}
}

func TestCountedRoundTrip(t *testing.T) {
	sets := [][]item.Item{{1, 5}, {2, 3, 4}}
	counts := []int64{42, 7}
	b := AppendCounted(nil, sets, counts)
	gs, gc, used, err := Counted(b)
	if err != nil || used != len(b) {
		t.Fatalf("decode: %v", err)
	}
	for i := range sets {
		if !item.Equal(gs[i], sets[i]) || gc[i] != counts[i] {
			t.Errorf("pair %d: %v/%d", i, gs[i], gc[i])
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := AppendItems(nil, []item.Item{1, 2, 3})
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := Items(b[:cut], nil); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	bc := AppendCounts(nil, []int64{1, 2, 3})
	if _, _, err := Counts(bc[:2]); err == nil {
		t.Error("truncated counts accepted")
	}
	// Length fields larger than the remaining payload must be rejected, not
	// allocated.
	huge := AppendUvarint(nil, 1<<40)
	if _, _, err := Items(huge, nil); err == nil {
		t.Error("oversized itemset length accepted")
	}
	if _, _, err := Counts(huge); err == nil {
		t.Error("oversized count length accepted")
	}
	if _, _, _, err := Counted(huge); err == nil {
		t.Error("oversized counted length accepted")
	}
}

// TestItemsRejectsNonCanonical: a peer batch may only carry what AppendItems
// emits for a strictly ascending itemset of int32 items. Everything else used
// to decode into a repeated or negative item and index out of range on the
// receiver goroutine.
func TestItemsRejectsNonCanonical(t *testing.T) {
	enc := func(vs ...uint64) []byte { return append(uvs(uint64(len(vs))), uvs(vs...)...) }
	for _, c := range CanonicalRunCases {
		b := enc(c.Vals...)
		items, used, err := Items(b, nil)
		if c.OK {
			if err != nil || used != len(b) || !item.IsSorted(items) {
				t.Errorf("%s: items %v used %d err %v", c.Name, items, used, err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted as %v", c.Name, items)
		}
	}
	// The list decoders built on Items inherit the check.
	if _, _, _, err := Counted(append(AppendUvarint(nil, 1), append(enc(3, 0), 9)...)); err == nil {
		t.Error("counted block with a repeated item accepted")
	}
}

// Property: concatenated itemset encodings decode back unit by unit — the
// exact framing the count-support batches rely on.
func TestBatchFramingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sets [][]item.Item
		var buf []byte
		for i := 0; i < rng.Intn(20); i++ {
			s := make([]item.Item, rng.Intn(6))
			for j := range s {
				s[j] = item.Item(rng.Intn(1 << 12))
			}
			s = item.Dedup(s)
			sets = append(sets, s)
			buf = AppendItems(buf, s)
		}
		i := 0
		for off := 0; off < len(buf); i++ {
			got, used, err := Items(buf[off:], nil)
			if err != nil || i >= len(sets) {
				return false
			}
			if len(got) != len(sets[i]) {
				return false
			}
			if len(got) > 0 && !item.Equal(got, sets[i]) {
				return false
			}
			off += used
		}
		return i == len(sets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSparseCountsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := rng.Intn(200)
		cs := make([]int64, n)
		// Mostly-zero vectors with occasional dense stretches, plus large
		// values to exercise multi-byte varints.
		for i := range cs {
			switch rng.Intn(10) {
			case 0:
				cs[i] = int64(rng.Intn(1 << 20))
			case 1:
				cs[i] = 1 + int64(rng.Intn(100))
			}
		}
		decodes := []struct {
			enc []byte
			dec func([]byte) ([]int64, int, error)
		}{
			{AppendSparseCounts(nil, cs), SparseCounts},
			{AppendCountsAuto(nil, cs), CountsAuto},
		}
		for _, d := range decodes {
			got, used, err := d.dec(d.enc)
			if err != nil || used != len(d.enc) || len(got) != len(cs) {
				return false
			}
			for i := range cs {
				if got[i] != cs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountsAutoPicksSmaller(t *testing.T) {
	sparse := make([]int64, 1000)
	sparse[3] = 9
	sparse[800] = 2
	dense := make([]int64, 1000)
	for i := range dense {
		dense[i] = int64(1 + i%127)
	}
	if b := AppendCountsAuto(nil, sparse); b[0] != countsSparse {
		t.Errorf("sparse vector encoded dense (%d bytes)", len(b))
	}
	if b := AppendCountsAuto(nil, dense); b[0] != countsDense {
		t.Errorf("dense vector encoded sparse (%d bytes)", len(b))
	}
	// The tagged form is never more than one byte over the best encoding.
	for _, cs := range [][]int64{sparse, dense, {}, {0}, {1 << 50}} {
		auto := AppendCountsAuto(nil, cs)
		best := len(AppendCounts(nil, cs))
		if s := len(AppendSparseCounts(nil, cs)); s < best {
			best = s
		}
		if len(auto) != best+1 {
			t.Errorf("auto %d bytes, best %d", len(auto), best)
		}
	}
}

func TestSparseCountsRejectsCorruption(t *testing.T) {
	b := AppendSparseCounts(nil, []int64{0, 5, 0, 7})
	if _, _, err := SparseCounts(b[:len(b)-1]); err == nil {
		t.Error("truncated sparse vector decoded")
	}
	// Gap pointing past the declared length must be rejected.
	bad := AppendUvarint(nil, 4) // n = 4
	bad = AppendUvarint(bad, 1)  // nnz = 1
	bad = AppendUvarint(bad, 10) // index 10 >= 4
	bad = AppendUvarint(bad, 1)
	if _, _, err := SparseCounts(bad); err == nil {
		t.Error("out-of-range sparse index decoded")
	}
	if _, _, err := CountsAuto([]byte{99, 0}); err == nil {
		t.Error("unknown tag decoded")
	}
	if _, _, err := CountsAuto(nil); err == nil {
		t.Error("empty tagged vector decoded")
	}
}
