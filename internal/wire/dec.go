package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pgarm/internal/item"
)

// Dec is the one decode cursor: every byte format a peer or a file feeds the
// repo — fabric payloads, PGTC blocks and directories, PGSL frames, snapshot
// sections — is read through it. The first error sticks: every later read
// returns a zero value without advancing, so a decoder reads its fields
// straight down and checks once, with Err or Done. Reads that narrow a
// uvarint (Int, I64, Item, Count) reject what does not fit instead of
// wrapping it into a negative or small value.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a cursor over b. The cursor aliases b and never writes it.
func NewDec(b []byte) Dec { return Dec{b: b} }

var (
	errUvarint   = errors.New("wire: truncated or overlong uvarint")
	errTruncated = errors.New("wire: truncated payload")
)

// NextItem is the canonical-itemset rule, one step of it: the first value of
// a run is the item itself and must fit int32; every later value is a delta
// that is non-zero (strictly ascending) and does not carry the item past
// MaxInt32. It returns the item and whether v was acceptable. Both cases are
// one unsigned comparison, 1 <= delta <= MaxInt32-prev, because this sits in
// every decode loop: a zero delta (or a first value of MaxUint64) wraps v-1
// to the top of the range and fails it.
func NextItem(prev item.Item, v uint64, first bool) (item.Item, bool) {
	if first {
		prev, v = -1, v+1 // an absolute item is a delta from -1, one larger
	}
	return prev + item.Item(v), v-1 < uint64(math.MaxInt32-int64(prev))
}

// NextTID is the ascending-TID rule, one step of it: the first value of a
// sequence is an absolute TID that fits int64 and lies above prev (pass -1
// when nothing precedes it); every later value is a non-zero delta that does
// not carry the TID past MaxInt64.
func NextTID(prev int64, v uint64, first bool) (int64, bool) {
	if first {
		return int64(v), v <= math.MaxInt64 && int64(v) > prev
	}
	return prev + int64(v), v != 0 && v <= uint64(math.MaxInt64-prev)
}

// fail keeps the first error and drops the unread bytes: a failed cursor is
// an empty one, so the inlined one-byte paths need no error test of their own.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err, d.b = err, nil
	}
}

// Fail records a format-level error found by the caller (a bad tag, a bound
// the cursor cannot know); like every error, only the first one is kept.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.fail(fmt.Errorf(format, args...))
	}
}

// Err returns the first error, for decoders that tolerate trailing bytes
// (sections a newer writer may have extended).
func (d *Dec) Err() error { return d.err }

// Done returns the first error, or an error naming the bytes left over: a
// payload that is exactly one value ends where its decoder does.
func (d *Dec) Done() error {
	if len(d.b) != 0 {
		d.Fail("wire: %d trailing bytes", len(d.b))
	}
	return d.err
}

// More reports whether unread bytes remain and no read has failed — the loop
// condition of a payload that is a concatenation of units.
func (d *Dec) More() bool { return len(d.b) > 0 }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.b) }

// U64 reads one uvarint.
func (d *Dec) U64() uint64 {
	if b := d.b; len(b) > 0 && b[0] < 0x80 { // most lengths, deltas and sizes
		d.b = b[1:]
		return uint64(b[0])
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errUvarint) // also where every read of a failed cursor lands
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bounded reads a uvarint that must not exceed limit.
func (d *Dec) bounded(limit uint64, what string) uint64 {
	v := d.U64()
	if v > limit {
		d.Fail("wire: value %d does not fit %s", v, what)
		return 0
	}
	return v
}

// I64 reads a uvarint that holds a non-negative int64 (a count, a duration,
// a TID).
func (d *Dec) I64() int64 { return int64(d.bounded(math.MaxInt64, "int64")) }

// Int reads a uvarint that holds a non-negative int (a rank, a pass, a size).
func (d *Dec) Int() int { return int(d.bounded(math.MaxInt, "int")) }

// I32 reads a uvarint that holds a non-negative int32 (a node, a lane).
func (d *Dec) I32() int32 { return int32(d.bounded(math.MaxInt32, "int32")) }

// Item reads one absolute item id.
func (d *Dec) Item() item.Item { return item.Item(d.I32()) }

// Zig reads a zigzag-coded signed value (see AppendZig).
func (d *Dec) Zig() int64 {
	u := d.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// F64 reads a float64 stored as the uvarint of its IEEE-754 bits, which is
// bit-exact across nodes (see AppendF64).
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Byte reads one raw byte (a version, a tag, a message kind).
func (d *Dec) Byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Count reads a collection length and bounds it by the unread payload: each
// element costs at least minBytes (>= 1), so a corrupt length can neither
// drive an allocation larger than the payload nor a long loop over nothing.
func (d *Dec) Count(minBytes int) int {
	n := d.U64()
	if n > uint64(len(d.b)/minBytes) {
		d.Fail("wire: collection length %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string; the result aliases the payload.
func (d *Dec) Bytes() []byte {
	n := d.Count(1)
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// Str reads a length-prefixed string (see AppendStr).
func (d *Dec) Str() string { return string(d.Bytes()) }

// Run reads n delta-coded items — one canonical itemset without its length
// prefix — and appends them to dst. It is the one loop behind every item
// column, basket and itemset the repo decodes, so it works on locals and
// commits the cursor once. A failed run leaves dst as it was.
func (d *Dec) Run(dst []item.Item, n int) []item.Item {
	b := d.b
	if uint(n) > uint(len(b)) { // each item takes >= 1 byte
		d.Fail("wire: itemset length %d exceeds payload", n)
		return dst
	}
	start := len(dst)
	dst = slices.Grow(dst, n)
	prev := item.Item(0)
	for i := 0; i < n; i++ {
		var v uint64
		if len(b) > 0 && b[0] < 0x80 { // the one-byte case, as in U64
			v, b = uint64(b[0]), b[1:]
		} else {
			var w int
			if v, w = binary.Uvarint(b); w <= 0 {
				d.fail(errUvarint)
				return dst[:start]
			}
			b = b[w:]
		}
		var ok bool
		if prev, ok = NextItem(prev, v, i == 0); !ok {
			d.Fail("wire: item %d of itemset is not canonical (value %d)", i, v)
			return dst[:start]
		}
		dst = append(dst, prev)
	}
	d.b = b
	return dst
}

// Items reads one itemset written by AppendItems, appending it to dst.
func (d *Dec) Items(dst []item.Item) []item.Item { return d.Run(dst, d.Count(1)) }

// TID reads the next TID of a strictly ascending sequence under NextTID.
func (d *Dec) TID(prev int64, first bool) int64 {
	v := d.U64()
	tid, ok := NextTID(prev, v, first)
	if !ok {
		d.Fail("wire: TID value %d after %d is not ascending", v, prev)
		return 0
	}
	return tid
}

// ItemsList reads a list of itemsets written by AppendItemsList.
func (d *Dec) ItemsList() [][]item.Item {
	n := d.Count(1)
	out := make([][]item.Item, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Items(nil))
	}
	return out
}

// PatternList reads pattern/count pairs written by AppendPatternList.
func (d *Dec) PatternList() (patterns [][][]item.Item, counts []int64) {
	n := d.Count(2)
	patterns = make([][][]item.Item, 0, n)
	counts = make([]int64, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		patterns = append(patterns, d.ItemsList())
		counts = append(counts, d.I64())
	}
	return patterns, counts
}

// Counted reads itemset/count pairs written by AppendCounted.
func (d *Dec) Counted() (sets [][]item.Item, counts []int64) {
	n := d.Count(2)
	sets = make([][]item.Item, 0, n)
	counts = make([]int64, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		sets = append(sets, d.Items(nil))
		counts = append(counts, d.I64())
	}
	return sets, counts
}

// Counts reads a dense count vector written by AppendCounts. Count vectors
// take max, the length their receiver expects (it knows the universe the
// vector is indexed by), because a sparse vector's zero runs cost no bytes and
// the payload cannot bound its length.
func (d *Dec) Counts(max int) []int64 {
	n := d.Count(1)
	if n > max {
		d.Fail("wire: count vector length %d exceeds the %d expected", n, max)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// SparseCounts reads a count vector written by AppendSparseCounts, of at most
// max entries.
func (d *Dec) SparseCounts(max int) []int64 {
	n := d.U64()
	nnz := d.Count(2)
	if n > uint64(max) {
		d.Fail("wire: count vector length %d exceeds the %d expected", n, max)
	} else if uint64(nnz) > n {
		d.Fail("wire: sparse count entries %d exceed length %d", nnz, n)
	}
	if d.err != nil {
		return nil
	}
	out := make([]int64, n)
	idx := uint64(0) // < n whenever an entry has been stored
	for i := 0; i < nnz; i++ {
		gap, v := d.U64(), d.I64()
		if gap >= n-idx {
			d.Fail("wire: sparse count index gap %d after %d out of range %d", gap, idx, n)
		}
		if d.err != nil {
			return nil
		}
		idx += gap
		out[idx] = v
	}
	return out
}

// CountsAuto reads a tagged count vector written by AppendCountsAuto, of at
// most max entries.
func (d *Dec) CountsAuto(max int) []int64 {
	switch tag := d.Byte(); tag {
	case countsDense:
		return d.Counts(max)
	case countsSparse:
		return d.SparseCounts(max)
	default:
		d.Fail("wire: unknown count vector tag %d", tag)
		return nil
	}
}
