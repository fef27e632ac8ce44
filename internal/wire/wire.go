// Package wire is the binary codec for everything the mining algorithms put
// on the fabric: itemset lists, count vectors, and the per-transaction item
// groups the count-support phase exchanges. Encodings are varint-based and
// self-describing enough for the TCP fabric to carry them between real
// processes; the channel fabric carries the same bytes so both fabrics
// report identical communication volume.
//
// This file is the encode side; dec.go holds Dec, the one cursor every
// decoder in the repo reads these (and the on-disk) formats through.
package wire

import (
	"encoding/binary"
	"math"

	"pgarm/internal/item"
)

// AppendUvarint appends v to dst.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendStr appends a length-prefixed string.
func AppendStr(dst []byte, s string) []byte {
	return append(AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendF64 appends a float64 as the uvarint of its IEEE-754 bits.
func AppendF64(dst []byte, f float64) []byte { return AppendUvarint(dst, math.Float64bits(f)) }

// AppendZig appends a signed value zigzag-coded, so small magnitudes of
// either sign stay short.
func AppendZig(dst []byte, v int64) []byte { return AppendUvarint(dst, uint64(v<<1)^uint64(v>>63)) }

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

// ItemsLen returns the size of AppendItems(nil, items).
func ItemsLen(items []item.Item) int {
	n := UvarintLen(uint64(len(items)))
	prev := item.Item(0)
	for _, x := range items {
		n += UvarintLen(uint64(x - prev))
		prev = x
	}
	return n
}

// Items, SparseCounts and Counted below are Dec reads in the (value, bytes
// consumed, error) shape bench/ compiles against; code in this repo uses the
// cursor directly. The byte count means nothing when err is non-nil.

// Items decodes an itemset encoded by AppendItems, appending the items to
// out. Only what AppendItems emits for a canonical itemset is accepted
// (Dec.Run).
func Items(b []byte, out []item.Item) ([]item.Item, int, error) {
	d := NewDec(b)
	out = d.Items(out)
	return out, len(b) - d.Len(), d.Err()
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

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
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

// SparseCounts decodes a count vector encoded by AppendSparseCounts that the
// caller trusts: the declared length is allocated as it stands. Peer and file
// bytes go through Dec.CountsAuto with the length the receiver expects.
func SparseCounts(b []byte) ([]int64, int, error) {
	d := NewDec(b)
	out := d.SparseCounts(math.MaxInt)
	return out, len(b) - d.Len(), d.Err()
}

// Encoding tags for AppendCountsAuto.
const (
	countsDense  = 0
	countsSparse = 1
)

// countsSizes returns the sizes of the dense and the sparse encoding of
// counts, without the tag byte.
func countsSizes(counts []int64) (dense, sparse int) {
	dense = UvarintLen(uint64(len(counts)))
	sparse = dense
	nnz := 0
	prev := 0
	for i, c := range counts {
		dense += UvarintLen(uint64(c))
		if c != 0 {
			sparse += UvarintLen(uint64(i-prev)) + UvarintLen(uint64(c))
			prev = i
			nnz++
		}
	}
	return dense, sparse + UvarintLen(uint64(nnz))
}

// AppendCountsAuto appends a count vector under whichever of the dense and
// sparse encodings is smaller for this vector, prefixed with a one-byte tag.
// Both sizes are computed exactly before encoding, so the choice never loses.
func AppendCountsAuto(dst []byte, counts []int64) []byte {
	if dense, sparse := countsSizes(counts); sparse < dense {
		dst = append(dst, countsSparse)
		return AppendSparseCounts(dst, counts)
	}
	dst = append(dst, countsDense)
	return AppendCounts(dst, counts)
}

// CountsAutoLen returns the size of AppendCountsAuto(nil, counts).
func CountsAutoLen(counts []int64) int {
	dense, sparse := countsSizes(counts)
	return 1 + min(dense, sparse)
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
	d := NewDec(b)
	sets, counts = d.Counted()
	return sets, counts, len(b) - d.Len(), d.Err()
}
