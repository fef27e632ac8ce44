package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pgarm/internal/item"
)

// uvs encodes a sequence of raw uvarints.
func uvs(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = AppendUvarint(b, v)
	}
	return b
}

// TestDecFirstErrorWins: after any read fails, every later read returns its
// zero value, consumes nothing and leaves the first error in place.
func TestDecFirstErrorWins(t *testing.T) {
	d := NewDec(append(uvs(7), 0x80)) // a good value, then a truncated one
	if v := d.U64(); v != 7 || d.Err() != nil {
		t.Fatalf("first read: %d, %v", v, d.Err())
	}
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatalf("truncated read: %d, %v", v, d.Err())
	}
	first := d.Err()
	d.Fail("a later format error")
	scratch := []item.Item{42}
	for name, zero := range map[string]bool{
		"U64":         d.U64() == 0,
		"I64":         d.I64() == 0,
		"Int":         d.Int() == 0,
		"I32":         d.I32() == 0,
		"Item":        d.Item() == 0,
		"Zig":         d.Zig() == 0,
		"F64":         d.F64() == 0,
		"Byte":        d.Byte() == 0,
		"Str":         d.Str() == "",
		"Count":       d.Count(1) == 0,
		"TID":         d.TID(5, false) == 0,
		"Items":       reflect.DeepEqual(d.Items(scratch), scratch),
		"Run":         reflect.DeepEqual(d.Run(scratch, 3), scratch),
		"More":        !d.More(),
		"Len":         d.Len() == 0,
		"CountsAuto":  len(d.CountsAuto(maxVec)) == 0,
		"ItemsList":   len(d.ItemsList()) == 0,
		"Counted":     func() bool { s, c := d.Counted(); return len(s)+len(c) == 0 }(),
		"PatternList": func() bool { p, c := d.PatternList(); return len(p)+len(c) == 0 }(),
	} {
		if !zero {
			t.Errorf("%s on a failed cursor returned a non-zero value", name)
		}
	}
	if d.Err() != first || d.Done() != first {
		t.Errorf("first error replaced: %v, then %v", first, d.Err())
	}
}

func TestDecNarrowingRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		v    uint64
		read func(*Dec)
		ok   bool
	}{
		{"I64 max", math.MaxInt64, func(d *Dec) { d.I64() }, true},
		{"I64 wraps negative", 1 << 63, func(d *Dec) { d.I64() }, false},
		{"Int max", math.MaxInt, func(d *Dec) { d.Int() }, true},
		{"Int wraps negative", 1<<63 + 5, func(d *Dec) { d.Int() }, false},
		{"I32 max", math.MaxInt32, func(d *Dec) { d.I32() }, true},
		{"I32 wraps small", 1<<32 + 1, func(d *Dec) { d.I32() }, false},
		{"Item max", math.MaxInt32, func(d *Dec) { d.Item() }, true},
		{"Item beyond int32", math.MaxInt32 + 1, func(d *Dec) { d.Item() }, false},
	} {
		d := NewDec(uvs(c.v))
		c.read(&d)
		if (d.Done() == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, d.Err(), c.ok)
		}
	}
}

func TestDecCountBoundedByPayload(t *testing.T) {
	for _, c := range []struct {
		name     string
		n        uint64
		rest     int // payload bytes after the length
		minBytes int
		ok       bool
	}{
		{"fits exactly", 4, 4, 1, true},
		{"one too many", 5, 4, 1, false},
		{"element size counts", 3, 8, 3, false},
		{"element size fits", 2, 8, 3, true},
		{"empty collection, empty payload", 0, 0, 16, true},
		{"product would wrap uint64", 1 << 62, 8, 16, false},
		{"absurd", math.MaxUint64, 100, 1, false},
	} {
		d := NewDec(append(uvs(c.n), make([]byte, c.rest)...))
		got := d.Count(c.minBytes)
		if c.ok && (d.Err() != nil || got != int(c.n)) {
			t.Errorf("%s: Count = %d, %v", c.name, got, d.Err())
		}
		if !c.ok && (d.Err() == nil || got != 0) {
			t.Errorf("%s: Count = %d accepted", c.name, got)
		}
	}
}

func TestDecDoneReportsTrailingBytes(t *testing.T) {
	d := NewDec(append(AppendItems(nil, []item.Item{1, 2}), 0xee))
	d.Items(nil)
	if d.Err() != nil {
		t.Fatalf("Err after a clean read: %v", d.Err())
	}
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done = %v, want a trailing-bytes error", err)
	}
	d = NewDec(AppendItems(nil, []item.Item{1, 2}))
	d.Items(nil)
	if err := d.Done(); err != nil {
		t.Fatalf("Done on an exactly consumed payload: %v", err)
	}
}

func TestDecScalarsRoundTrip(t *testing.T) {
	var b []byte
	b = AppendStr(b, "")
	b = AppendStr(b, "pass 3")
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendF64(b, math.Inf(1))
	b = AppendF64(b, 0.3)
	for _, v := range []int64{0, -1, 1, 1998, -1998, math.MaxInt64, math.MinInt64} {
		b = AppendZig(b, v)
	}
	b = append(b, 0xfe)
	d := NewDec(b)
	if s := d.Str(); s != "" {
		t.Errorf("empty string = %q", s)
	}
	if s := d.Str(); s != "pass 3" {
		t.Errorf("string = %q", s)
	}
	if f := d.F64(); f != 0 || !math.Signbit(f) {
		t.Errorf("-0.0 = %v", f)
	}
	if f := d.F64(); !math.IsInf(f, 1) {
		t.Errorf("+Inf = %v", f)
	}
	if f := d.F64(); f != 0.3 {
		t.Errorf("0.3 = %v", f)
	}
	for _, v := range []int64{0, -1, 1, 1998, -1998, math.MaxInt64, math.MinInt64} {
		if got := d.Zig(); got != v {
			t.Errorf("Zig = %d, want %d", got, v)
		}
	}
	if c := d.Byte(); c != 0xfe {
		t.Errorf("Byte = %#x", c)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	// A string whose length runs past the payload is refused, not sliced.
	d = NewDec(append(uvs(9), "short"...))
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Errorf("overlong string read as %q, err %v", s, d.Err())
	}
}

// CanonicalRunCases is the table of TestItemsRejectsNonCanonical as raw value
// sequences (first item, then deltas), shared with the other readers of the
// rule: Dec.Run here, and txn's row reader through its own test.
var CanonicalRunCases = []struct {
	Name string
	Vals []uint64
	OK   bool
}{
	{"empty", nil, true},
	{"single zero", []uint64{0}, true},
	{"ascending", []uint64{0, 1, 5}, true},
	{"largest item", []uint64{math.MaxInt32}, true},
	{"ascending to largest item", []uint64{math.MaxInt32 - 1, 1}, true},
	{"zero delta", []uint64{4, 0}, false},
	{"zero delta late", []uint64{4, 2, 0}, false},
	{"first item beyond int32", []uint64{math.MaxInt32 + 1}, false},
	{"first item wraps negative", []uint64{1 << 32}, false},
	{"delta wraps int32", []uint64{7, math.MaxInt32}, false},
	{"delta wraps to a larger item", []uint64{7, 1<<32 + 1}, false},
	{"delta past largest item by one", []uint64{math.MaxInt32 - 1, 2}, false},
}

func TestDecRunCanonicalTable(t *testing.T) {
	for _, c := range CanonicalRunCases {
		// Dec.Run: no length prefix. Dec.Items: with one.
		run := NewDec(uvs(c.Vals...))
		got := run.Run([]item.Item{99}, len(c.Vals))
		items := NewDec(append(uvs(uint64(len(c.Vals))), uvs(c.Vals...)...))
		got2 := items.Items([]item.Item{99})
		for name, r := range map[string]struct {
			d   *Dec
			got []item.Item
		}{"Run": {&run, got}, "Items": {&items, got2}} {
			err := r.d.Done()
			switch {
			case c.OK && (err != nil || len(r.got) != 1+len(c.Vals) || r.got[0] != 99 || !item.IsSorted(r.got[1:])):
				t.Errorf("%s %s: %v, err %v", name, c.Name, r.got, err)
			case !c.OK && err == nil:
				t.Errorf("%s %s: accepted as %v", name, c.Name, r.got)
			case !c.OK && !reflect.DeepEqual(r.got, []item.Item{99}):
				t.Errorf("%s %s: failed run left dst as %v", name, c.Name, r.got)
			}
		}
	}
	// A run longer than the payload is refused before any allocation.
	d := NewDec(uvs(1, 1))
	if d.Run(nil, 1<<40); d.Err() == nil {
		t.Error("run longer than the payload accepted")
	}
	// Multi-byte items can exhaust the payload mid-run.
	d = NewDec(uvs(300))
	if d.Run(nil, 2); d.Err() == nil {
		t.Error("run past the end of the payload accepted")
	}
}

func TestDecTIDTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		prev  int64
		v     uint64
		first bool
		want  int64
		ok    bool
	}{
		{"first, nothing before", -1, 0, true, 0, true},
		{"first, nothing before, largest", -1, math.MaxInt64, true, math.MaxInt64, true},
		{"first beyond int64", -1, 1 << 63, true, 0, false},
		{"first above the prior frame", 9, 10, true, 10, true},
		{"first equal to the prior frame", 9, 9, true, 0, false},
		{"first below the prior frame", 9, 3, true, 0, false},
		{"delta", 9, 3, false, 12, true},
		{"zero delta after the first", 9, 0, false, 0, false},
		{"delta to the largest TID", math.MaxInt64 - 1, 1, false, math.MaxInt64, true},
		{"delta wraps past MaxInt64", math.MaxInt64 - 1, 2, false, 0, false},
		{"delta wraps uint64", 5, math.MaxUint64, false, 0, false},
	} {
		d := NewDec(uvs(c.v))
		got := d.TID(c.prev, c.first)
		if err := d.Done(); (err == nil) != c.ok || got != c.want {
			t.Errorf("%s: TID = %d, err %v; want %d ok=%v", c.name, got, err, c.want, c.ok)
		}
		if tid, ok := NextTID(c.prev, c.v, c.first); ok != c.ok || (ok && tid != c.want) {
			t.Errorf("%s: NextTID = %d, %v", c.name, tid, ok)
		}
	}
}

// TestDecItemsNoAllocs: decoding into a reused scratch — the shape of every
// receive loop — allocates nothing.
func TestDecItemsNoAllocs(t *testing.T) {
	var batch []byte
	for i := 0; i < 64; i++ {
		batch = AppendItems(batch, []item.Item{item.Item(i), item.Item(i + 200), 1 << 20})
	}
	scratch := make([]item.Item, 0, 8)
	var n int
	allocs := testing.AllocsPerRun(50, func() {
		d := NewDec(batch)
		for d.More() {
			scratch = d.Items(scratch[:0])
			n += len(scratch)
		}
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if allocs != 0 || n == 0 {
		t.Errorf("Dec.Items into a reused scratch: %v allocs/run", allocs)
	}
}

// TestListsRejectCorruptCounts: a count that does not fit int64 used to be
// handed on as a negative support.
func TestListsRejectCorruptCounts(t *testing.T) {
	const big = 1<<63 + 5
	for _, c := range []struct {
		name string
		b    []byte
		read func(*Dec)
	}{
		{"dense count vector entry", uvs(2, 7, big), func(d *Dec) { d.Counts(maxVec) }},
		{"tagged dense entry", append([]byte{countsDense}, uvs(1, big)...), func(d *Dec) { d.CountsAuto(maxVec) }},
		{"sparse entry", uvs(4, 1, 2, big), func(d *Dec) { d.SparseCounts(maxVec) }},
		{"counted pair", append(uvs(1), append(AppendItems(nil, []item.Item{3, 4}), uvs(big)...)...), func(d *Dec) { d.Counted() }},
		{"pattern count", append(uvs(1), append(AppendItemsList(nil, [][]item.Item{{1}}), uvs(big)...)...), func(d *Dec) { d.PatternList() }},
		{"sparse length beyond the receiver's universe", uvs(1<<40, 0), func(d *Dec) { d.SparseCounts(maxVec) }},
		{"sparse length one past the expected", uvs(5, 1, 4, 9), func(d *Dec) { d.SparseCounts(4) }},
		{"dense length one past the expected", uvs(3, 1, 2, 3), func(d *Dec) { d.Counts(2) }},
		{"sparse length that does not fit int", uvs(math.MaxUint64, 0), func(d *Dec) { d.SparseCounts(math.MaxInt) }},
		{"sparse gap wraps uint64", uvs(8, 2, 3, 1, math.MaxUint64-1, 1), func(d *Dec) { d.SparseCounts(maxVec) }},
	} {
		d := NewDec(c.b)
		c.read(&d)
		if d.Done() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The same bytes with the count in range decode.
	d := NewDec(uvs(2, 7, math.MaxInt64))
	if got := d.Counts(2); d.Done() != nil || got[1] != math.MaxInt64 {
		t.Errorf("in-range counts: %v, %v", got, d.Err())
	}
	// A vector of exactly the expected length decodes, dense or sparse.
	d = NewDec(uvs(5, 1, 4, 9))
	if got := d.SparseCounts(5); d.Done() != nil || !reflect.DeepEqual(got, []int64{0, 0, 0, 0, 9}) {
		t.Errorf("sparse vector of the expected length: %v, %v", got, d.Err())
	}
}

// TestSparseCountsLongVector: the only bound on a count vector's length is
// the one its receiver states. NPGM's duplicated-candidate vector is |C_k|
// long — tens of millions once L_1 passes a few thousand items — and mostly
// zero on any one node, so it travels sparse; it must decode at any length
// the encoder emits.
func TestSparseCountsLongVector(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 128 MB vector")
	}
	const n = 1<<24 + 3
	b := append([]byte{countsSparse}, uvs(n, 2, 7, 5, n-8, 9)...)
	d := NewDec(b)
	got := d.CountsAuto(n)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n || got[7] != 5 || got[n-1] != 9 {
		t.Fatalf("decoded %d entries, [7]=%d, [last]=%d", len(got), got[7], got[n-1])
	}
	if re := AppendCountsAuto(nil, got); !bytes.Equal(re, b) {
		t.Fatalf("the encoder emits %x for the decoded vector, decoded from %x", re, b)
	}
	d = NewDec(b)
	if d.CountsAuto(n - 1); d.Err() == nil {
		t.Error("accepted a vector longer than the receiver expects")
	}
}

// FuzzWireLists feeds arbitrary bytes to every list decoder a peer payload or
// a snapshot section reaches. Nothing may panic or allocate past the payload
// (a count vector: past the maxVec entries the receiver expects), and whatever is accepted must survive a re-encode: the value, not the
// bytes, is compared, because a uvarint has non-minimal spellings.
func FuzzWireLists(f *testing.F) {
	sets := [][]item.Item{{1, 5}, {2, 3, 4}, {math.MaxInt32}}
	counts := []int64{42, 0, 1 << 40}
	sparse := make([]int64, 300)
	sparse[7], sparse[299] = 3, 1<<50
	for _, seed := range [][]byte{
		AppendCountsAuto(nil, counts),
		AppendCountsAuto(nil, sparse),
		AppendCounted(nil, sets, counts),
		AppendItemsList(nil, sets),
		AppendPatternList(nil, [][][]item.Item{{{1, 2}, {3}}, {{9}}}, counts[:2]),
		{},
	} {
		for which := byte(0); which < 4; which++ {
			f.Add(which, seed)
		}
	}
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		d := NewDec(data)
		var re []byte
		var again func(*Dec) any
		var got any
		switch which % 4 {
		case 0:
			v := d.CountsAuto(maxVec)
			got, re = v, AppendCountsAuto(nil, v)
			again = func(d *Dec) any { return d.CountsAuto(maxVec) }
		case 1:
			s, c := d.Counted()
			got, re = [2]any{s, c}, AppendCounted(nil, s, c)
			again = func(d *Dec) any { s, c := d.Counted(); return [2]any{s, c} }
		case 2:
			v := d.ItemsList()
			got, re = v, AppendItemsList(nil, v)
			again = func(d *Dec) any { return d.ItemsList() }
		case 3:
			p, c := d.PatternList()
			got, re = [2]any{p, c}, AppendPatternList(nil, p, c)
			again = func(d *Dec) any { p, c := d.PatternList(); return [2]any{p, c} }
		}
		if d.Err() != nil {
			return
		}
		d2 := NewDec(re)
		if got2 := again(&d2); d2.Done() != nil || !equalDecoded(got, got2) {
			t.Fatalf("re-encoded value decodes differently: %v vs %v (err %v)", got, got2, d2.Err())
		}
	})
}

// equalDecoded is reflect.DeepEqual, except that an empty itemset is one
// value whether it decoded as nil or as a zero-length slice.
func equalDecoded(a, b any) bool {
	return reflect.DeepEqual(normalize(reflect.ValueOf(a)), normalize(reflect.ValueOf(b)))
}

func normalize(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Interface:
		return normalize(v.Elem())
	case reflect.Slice, reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = normalize(v.Index(i))
		}
		return out
	}
	return v.Interface()
}
