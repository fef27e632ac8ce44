// Package wire is the binary codec for everything the mining algorithms put
// on the fabric: itemset lists, count vectors, and the per-transaction item
// groups the count-support phase exchanges. Encodings are varint-based and
// self-describing enough for the TCP fabric to carry them between real
// processes; the channel fabric carries the same bytes so both fabrics
// report identical communication volume.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"pgarm/internal/item"
)

// AppendUvarint appends v to dst.
func AppendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// Uvarint decodes a uvarint from b, returning the value and bytes consumed.
func Uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated or overlong uvarint")
	}
	return v, n, nil
}

// AppendItems appends a delta-encoded canonical itemset: count, then first
// item absolute and the rest as deltas.
func AppendItems(dst []byte, items []item.Item) []byte {
	dst = AppendUvarint(dst, uint64(len(items)))
	prev := item.Item(0)
	for i, x := range items {
		if i == 0 {
			dst = AppendUvarint(dst, uint64(x))
		} else {
			dst = AppendUvarint(dst, uint64(x-prev))
		}
		prev = x
	}
	return dst
}

// Items decodes an itemset encoded by AppendItems, appending the items to
// out. It returns the extended slice and the number of bytes consumed. Only
// what AppendItems emits for a canonical itemset is accepted: an item beyond
// int32, a zero delta or a delta that would wrap is a corrupt payload, not a
// negative or repeated item handed to the caller.
func Items(b []byte, out []item.Item) ([]item.Item, int, error) {
	n, used, err := Uvarint(b)
	if err != nil {
		return out, 0, err
	}
	if n > uint64(len(b)) { // each item takes >= 1 byte
		return out, 0, fmt.Errorf("wire: itemset length %d exceeds payload", n)
	}
	off := used
	prev := item.Item(0)
	for i := uint64(0); i < n; i++ {
		v, u, err := Uvarint(b[off:])
		if err != nil {
			return out, 0, err
		}
		off += u
		switch {
		case i == 0 && v <= math.MaxInt32:
			prev = item.Item(v)
		case i > 0 && v > 0 && v <= uint64(math.MaxInt32-prev):
			prev += item.Item(v)
		default:
			return out, 0, fmt.Errorf("wire: item %d of itemset is not canonical (delta %d after %d)", i, v, prev)
		}
		out = append(out, prev)
	}
	return out, off, nil
}

// AppendItemsList appends a list of itemsets: count, then each itemset.
func AppendItemsList(dst []byte, sets [][]item.Item) []byte {
	dst = AppendUvarint(dst, uint64(len(sets)))
	for _, s := range sets {
		dst = AppendItems(dst, s)
	}
	return dst
}

// ItemsList decodes a list of itemsets encoded by AppendItemsList.
func ItemsList(b []byte) ([][]item.Item, int, error) {
	n, off, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("wire: list length %d exceeds payload", n)
	}
	out := make([][]item.Item, 0, n)
	for i := uint64(0); i < n; i++ {
		items, used, err := Items(b[off:], nil)
		if err != nil {
			return nil, 0, err
		}
		off += used
		out = append(out, items)
	}
	return out, off, nil
}

// AppendPatternList appends sequential-pattern/count pairs: each pattern is
// its element list (itemsets in temporal order, encoded as an itemset list)
// followed by its support count — what the partitioned sequence miners send
// the coordinator as their locally determined frequent patterns, and what the
// F_k broadcast carries back. len(counts) must equal len(patterns).
func AppendPatternList(dst []byte, patterns [][][]item.Item, counts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(patterns)))
	for i, p := range patterns {
		dst = AppendItemsList(dst, p)
		dst = AppendUvarint(dst, uint64(counts[i]))
	}
	return dst
}

// PatternList decodes pairs encoded by AppendPatternList.
func PatternList(b []byte) (patterns [][][]item.Item, counts []int64, used int, err error) {
	n, off, err := Uvarint(b)
	if err != nil {
		return nil, nil, 0, err
	}
	if n > uint64(len(b)) { // each pattern takes >= 2 bytes
		return nil, nil, 0, fmt.Errorf("wire: pattern list length %d exceeds payload", n)
	}
	patterns = make([][][]item.Item, 0, n)
	counts = make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		elements, u, err := ItemsList(b[off:])
		if err != nil {
			return nil, nil, 0, err
		}
		off += u
		c, u2, err := Uvarint(b[off:])
		if err != nil {
			return nil, nil, 0, err
		}
		off += u2
		patterns = append(patterns, elements)
		counts = append(counts, int64(c))
	}
	return patterns, counts, off, nil
}

// AppendCounts appends a dense support-count vector (what nodes send to the
// coordinator when gathering sup_cou of replicated candidates).
func AppendCounts(dst []byte, counts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(counts)))
	for _, c := range counts {
		dst = AppendUvarint(dst, uint64(c))
	}
	return dst
}

// Counts decodes a count vector encoded by AppendCounts.
func Counts(b []byte) ([]int64, int, error) {
	n, off, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("wire: count vector length %d exceeds payload", n)
	}
	out := make([]int64, n)
	for i := range out {
		v, u, err := Uvarint(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += u
		out[i] = int64(v)
	}
	return out, off, nil
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendSparseCounts appends a sparse support-count vector: total length,
// number of non-zero entries, then each non-zero entry as (index delta,
// value). The first index is absolute and the rest are gaps from the previous
// non-zero index, so long zero runs — the common case for pass-1 item count
// vectors at low support — cost nothing.
func AppendSparseCounts(dst []byte, counts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(counts)))
	nnz := 0
	for _, c := range counts {
		if c != 0 {
			nnz++
		}
	}
	dst = AppendUvarint(dst, uint64(nnz))
	prev := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		dst = AppendUvarint(dst, uint64(i-prev))
		dst = AppendUvarint(dst, uint64(c))
		prev = i
	}
	return dst
}

// SparseCounts decodes a count vector encoded by AppendSparseCounts.
func SparseCounts(b []byte) ([]int64, int, error) {
	n, off, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	nnz, u, err := Uvarint(b[off:])
	if err != nil {
		return nil, 0, err
	}
	off += u
	if nnz > n || 2*nnz > uint64(len(b)) { // each entry takes >= 2 bytes
		return nil, 0, fmt.Errorf("wire: sparse count entries %d exceed payload", nnz)
	}
	out := make([]int64, n)
	idx := uint64(0)
	for i := uint64(0); i < nnz; i++ {
		gap, u, err := Uvarint(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += u
		v, u2, err := Uvarint(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += u2
		idx += gap
		if idx >= n {
			return nil, 0, fmt.Errorf("wire: sparse count index %d out of range %d", idx, n)
		}
		out[idx] = int64(v)
	}
	return out, off, nil
}

// Encoding tags for AppendCountsAuto.
const (
	countsDense  = 0
	countsSparse = 1
)

// AppendCountsAuto appends a count vector under whichever of the dense and
// sparse encodings is smaller for this vector, prefixed with a one-byte tag.
// Both sizes are computed exactly before encoding, so the choice never loses.
func AppendCountsAuto(dst []byte, counts []int64) []byte {
	dense := uvarintLen(uint64(len(counts)))
	sparse := dense
	nnz := 0
	prev := 0
	for i, c := range counts {
		dense += uvarintLen(uint64(c))
		if c != 0 {
			sparse += uvarintLen(uint64(i-prev)) + uvarintLen(uint64(c))
			prev = i
			nnz++
		}
	}
	sparse += uvarintLen(uint64(nnz))
	if sparse < dense {
		dst = append(dst, countsSparse)
		return AppendSparseCounts(dst, counts)
	}
	dst = append(dst, countsDense)
	return AppendCounts(dst, counts)
}

// CountsAuto decodes a count vector encoded by AppendCountsAuto.
func CountsAuto(b []byte) ([]int64, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("wire: empty tagged count vector")
	}
	switch b[0] {
	case countsDense:
		out, used, err := Counts(b[1:])
		return out, used + 1, err
	case countsSparse:
		out, used, err := SparseCounts(b[1:])
		return out, used + 1, err
	}
	return nil, 0, fmt.Errorf("wire: unknown count vector tag %d", b[0])
}

// AppendCounted appends itemset/count pairs (what partitioned nodes send the
// coordinator as their locally determined large itemsets).
func AppendCounted(dst []byte, sets [][]item.Item, counts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(sets)))
	for i, s := range sets {
		dst = AppendItems(dst, s)
		dst = AppendUvarint(dst, uint64(counts[i]))
	}
	return dst
}

// Counted decodes pairs encoded by AppendCounted.
func Counted(b []byte) (sets [][]item.Item, counts []int64, used int, err error) {
	n, off, err := Uvarint(b)
	if err != nil {
		return nil, nil, 0, err
	}
	if n > uint64(len(b)) {
		return nil, nil, 0, fmt.Errorf("wire: counted length %d exceeds payload", n)
	}
	sets = make([][]item.Item, 0, n)
	counts = make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		items, u, err := Items(b[off:], nil)
		if err != nil {
			return nil, nil, 0, err
		}
		off += u
		c, u2, err := Uvarint(b[off:])
		if err != nil {
			return nil, nil, 0, err
		}
		off += u2
		sets = append(sets, items)
		counts = append(counts, int64(c))
	}
	return sets, counts, off, nil
}
