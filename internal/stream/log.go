// Package stream is the ingestion side of the miner: an append-only,
// crc-framed transaction log that decouples producers (pgarm-ingest, or any
// upstream feed) from the incremental miner tailing it.
//
// A log is a directory of segment files seg-00000000.psl, seg-00000001.psl,
// ... Each segment starts with a fixed header:
//
//	magic   uint32 BE  "PGSL"
//	version byte       1
//	segIdx  uint64 BE  index of this segment (matches the file name)
//	base    uint64 BE  transactions stored in all prior segments
//
// followed by frames:
//
//	length uint32 BE   payload bytes
//	crc    uint32 BE   IEEE CRC-32 of the payload
//	payload            batch of transactions
//
// A frame payload is self-contained: a transaction count, then per
// transaction a TID (first absolute, rest as deltas >= 1 — TIDs are strictly
// ascending across the whole log), an item count, and the canonical
// (strictly ascending) items delta-coded like the row format in
// internal/txn. Self-containment is what makes offsets durable: an Offset
// names a frame boundary, and a reader can resume there without any state
// from earlier frames beyond the transaction count the offset carries.
//
// Durability and recovery: Append buffers frames and Sync fsyncs them, so a
// producer controls the batch/durability trade. A crash can leave a torn
// frame at the tail of the *last* segment only — rotation fsyncs and closes
// a segment before creating its successor — and OpenLog truncates such a
// tail on restart. A torn frame on a non-last segment means real corruption
// and is refused.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pgarm/internal/item"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

const (
	logMagic   = 0x5047534c // "PGSL" big-endian
	logVersion = 1

	// headerSize is the fixed segment header: magic + version + segIdx + base.
	headerSize = 4 + 1 + 8 + 8
	// frameHeaderSize prefixes every frame: length + crc.
	frameHeaderSize = 4 + 4

	// maxFramePayload bounds a single frame so corrupt length fields cannot
	// drive huge allocations in the reader.
	maxFramePayload = 1 << 26
	// maxFrameTxns caps how many transactions Append packs per frame, keeping
	// frames (and therefore tail-read latency) small even for huge batches.
	maxFrameTxns = 4096
	// maxBasketSize mirrors the row-format cap: no real basket has a million
	// items, so larger counts are treated as corruption.
	maxBasketSize = 1 << 20
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes is
// zero.
const DefaultSegmentBytes = 64 << 20

// Options configures a Log writer.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size. 0 means DefaultSegmentBytes. A single frame larger than the
	// threshold still lands in one segment (frames never straddle segments).
	SegmentBytes int64
}

// Offset names a frame boundary in the log: a segment, a byte position
// inside it, and the total number of transactions stored before that
// position. The zero Offset is the start of the log. Offsets are only
// meaningful if they were produced by this package (ReadFrom, Log.End) —
// the reader refuses positions that do not land on frame boundaries.
type Offset struct {
	Seg  uint64 `json:"seg"`
	Byte int64  `json:"byte"`
	Txns int64  `json:"txns"`
}

// segName returns the file name of segment i.
func segName(i uint64) string { return fmt.Sprintf("seg-%08d.psl", i) }

// Log is the single-writer handle. It is not safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	f       *os.File // current (last) segment
	seg     uint64   // index of the current segment
	segBase int64    // transactions stored in all prior segments
	segByte int64    // current write position within the segment
	segTxns int64    // transactions stored in the current segment

	nextTID int64 // 0 on an empty log, else last TID + 1

	buf []byte // frame scratch
}

// OpenLog opens (creating if needed) the log directory for appending. If the
// last segment has a torn tail from a crash it is truncated back to the last
// complete frame; torn frames anywhere else are an error.
func OpenLog(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: create log dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.createSegment(0, 0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Validate the full chain. Every segment but the last must be complete;
	// the last may have a torn tail, which we truncate.
	base := int64(0)
	var lastTID int64 = -1
	for i, seg := range segs {
		if seg != uint64(i) {
			return nil, fmt.Errorf("stream: segment chain has a gap: want %s, have %s", segName(uint64(i)), segName(seg))
		}
		last := i == len(segs)-1
		path := filepath.Join(dir, segName(seg))
		if last {
			// A crash between creating a segment and completing its 21-byte
			// header leaves a short file; rewrite it as a fresh empty segment.
			if fi, serr := os.Stat(path); serr == nil && fi.Size() < headerSize {
				if err := os.Remove(path); err != nil {
					return nil, fmt.Errorf("stream: drop torn segment header: %w", err)
				}
				l.nextTID = lastTID + 1
				if err := l.createSegment(seg, base); err != nil {
					return nil, err
				}
				return l, nil
			}
		}
		n, end, tid, err := validateSegment(path, seg, base, lastTID, last)
		if err != nil {
			return nil, err
		}
		base += n
		if n > 0 {
			lastTID = tid
		}
		if last {
			l.seg = seg
			l.segBase = base - n
			l.segByte = end
			l.segTxns = n
		}
	}
	l.nextTID = lastTID + 1
	path := filepath.Join(dir, segName(l.seg))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("stream: open %s: %w", path, err)
	}
	// Truncate any torn tail so the file ends exactly at the last complete
	// frame before we append after it.
	if err := f.Truncate(l.segByte); err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(l.segByte, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: seek %s: %w", path, err)
	}
	l.f = f
	return l, nil
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stream: read log dir: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		var i uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.psl", &i); err == nil && e.Name() == segName(i) {
			segs = append(segs, i)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// validateSegment checks one segment's header and frames. It returns the
// number of transactions it holds, the byte offset just past the last
// complete frame, and the last TID seen (or prevTID if empty). If last is
// false a torn tail is an error; if true, the torn tail is simply excluded
// from the returned end offset.
func validateSegment(path string, seg uint64, base, prevTID int64, last bool) (n, end, lastTID int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("stream: read %s: %w", path, err)
	}
	var scratch []item.Item
	if err := checkHeader(b, seg, base); err != nil {
		return 0, 0, 0, fmt.Errorf("stream: %s: %w", path, err)
	}
	off := int64(headerSize)
	lastTID = prevTID
	for {
		payload, next, ferr := sliceFrame(b, off)
		if ferr == errShortFrame {
			if !last {
				return 0, 0, 0, fmt.Errorf("stream: %s: torn frame at %d in non-last segment", path, off)
			}
			return n, off, lastTID, nil
		}
		if ferr == io.EOF {
			return n, off, lastTID, nil
		}
		if ferr != nil {
			return 0, 0, 0, fmt.Errorf("stream: %s: frame at %d: %w", path, off, ferr)
		}
		fn, ftid, derr := decodeFrame(payload, lastTID, &scratch, func(txn.Transaction) error { return nil })
		if derr != nil {
			return 0, 0, 0, fmt.Errorf("stream: %s: frame at %d: %w", path, off, derr)
		}
		n += fn
		if fn > 0 {
			lastTID = ftid
		}
		off = next
	}
}

// checkHeader validates a segment header against the expected index and
// cumulative transaction count; base < 0 means the caller does not know the
// count (a reader resuming mid-segment) and it is not compared.
func checkHeader(b []byte, seg uint64, base int64) error {
	if len(b) < headerSize {
		return fmt.Errorf("short segment header: %d bytes", len(b))
	}
	if m := binary.BigEndian.Uint32(b); m != logMagic {
		return fmt.Errorf("bad magic %#x", m)
	}
	if v := b[4]; v != logVersion {
		return fmt.Errorf("unsupported version %d", v)
	}
	if i := binary.BigEndian.Uint64(b[5:]); i != seg {
		return fmt.Errorf("header names segment %d, file is segment %d", i, seg)
	}
	if bt := binary.BigEndian.Uint64(b[13:]); base >= 0 && bt != uint64(base) {
		return fmt.Errorf("header base txns %d, expected %d", bt, base)
	}
	return nil
}

// errShortFrame reports a frame whose header or payload extends past the
// available bytes — a torn tail on a live log, corruption otherwise.
var errShortFrame = errors.New("stream: short frame")

// sliceFrame extracts the frame starting at off in b, verifying its CRC. It
// returns io.EOF exactly at the end of b, and errShortFrame when the frame
// header or payload is cut off.
func sliceFrame(b []byte, off int64) (payload []byte, next int64, err error) {
	if off == int64(len(b)) {
		return nil, 0, io.EOF
	}
	if off+frameHeaderSize > int64(len(b)) {
		return nil, 0, errShortFrame
	}
	n := int64(binary.BigEndian.Uint32(b[off:]))
	if n == 0 || n > maxFramePayload {
		return nil, 0, fmt.Errorf("frame payload length %d out of range", n)
	}
	want := binary.BigEndian.Uint32(b[off+4:])
	if off+frameHeaderSize+n > int64(len(b)) {
		return nil, 0, errShortFrame
	}
	payload = b[off+frameHeaderSize : off+frameHeaderSize+n]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("frame crc mismatch: %#x != %#x", got, want)
	}
	return payload, off + frameHeaderSize + n, nil
}

// decodeFrame decodes a frame payload, invoking fn per transaction with a
// basket built in *scratch (reused across transactions and frames; fn must
// not keep it). It returns the transaction count and the last TID. prevTID
// is the last TID before this frame, or -1 if unknown (resuming mid-log):
// then the first transaction's TID is accepted as-is and ascent is only
// enforced from the second transaction on.
func decodeFrame(payload []byte, prevTID int64, scratch *[]item.Item, fn func(txn.Transaction) error) (n, lastTID int64, err error) {
	d := wire.NewDec(payload)
	count := d.Count(3) // a TID, a size and at least one item
	if count == 0 {
		d.Fail("frame holds no transactions")
	}
	tid := prevTID
	for i := 0; i < count; i++ {
		tid = d.TID(tid, i == 0)
		nitems := d.Count(1)
		if nitems == 0 || nitems > maxBasketSize {
			d.Fail("frame basket size %d out of range", nitems)
		}
		basket := d.Run((*scratch)[:0], nitems)
		if d.Err() != nil {
			break
		}
		*scratch = basket
		if err := fn(txn.Transaction{TID: tid, Items: basket}); err != nil {
			return 0, 0, err
		}
	}
	if err := d.Done(); err != nil {
		return 0, 0, err
	}
	return int64(count), tid, nil
}

// createSegment creates segment seg with the given cumulative base count and
// makes it the current write target.
func (l *Log) createSegment(seg uint64, base int64) error {
	path := filepath.Join(l.dir, segName(seg))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("stream: create %s: %w", path, err)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:], logMagic)
	hdr[4] = logVersion
	binary.BigEndian.PutUint64(hdr[5:], seg)
	binary.BigEndian.PutUint64(hdr[13:], uint64(base))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("stream: write %s header: %w", path, err)
	}
	l.f = f
	l.seg = seg
	l.segBase = base
	l.segByte = headerSize
	l.segTxns = 0
	// Make the new directory entry durable so a crash after rotation cannot
	// lose the segment the reader is about to be pointed at.
	if d, err := os.Open(l.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Append encodes the batch into one or more frames and writes them to the
// log. TIDs must be strictly ascending and continue above everything already
// in the log; items must be canonical (strictly ascending). The data is
// buffered by the OS until Sync.
func (l *Log) Append(txns []txn.Transaction) error {
	for i := 0; i < len(txns); i += maxFrameTxns {
		end := i + maxFrameTxns
		if end > len(txns) {
			end = len(txns)
		}
		if err := l.appendFrame(txns[i:end]); err != nil {
			return err
		}
	}
	return nil
}

// appendFrame validates, encodes and writes one frame.
func (l *Log) appendFrame(txns []txn.Transaction) error {
	if len(txns) == 0 {
		return nil
	}
	buf := l.buf[:0]
	// Reserve the frame header; filled in once the payload size is known.
	buf = append(buf, make([]byte, frameHeaderSize)...)
	buf = wire.AppendUvarint(buf, uint64(len(txns)))
	tid := l.nextTID - 1 // -1 on an empty log
	for i, t := range txns {
		if t.TID <= tid {
			return fmt.Errorf("stream: append TID %d not above prior %d", t.TID, tid)
		}
		if len(t.Items) == 0 || len(t.Items) > maxBasketSize {
			return fmt.Errorf("stream: append basket size %d out of range (TID %d)", len(t.Items), t.TID)
		}
		if !item.IsSorted(t.Items) {
			return fmt.Errorf("stream: append basket not canonical (TID %d)", t.TID)
		}
		if i == 0 {
			buf = wire.AppendUvarint(buf, uint64(t.TID))
		} else {
			buf = wire.AppendUvarint(buf, uint64(t.TID-tid))
		}
		tid = t.TID
		buf = wire.AppendItems(buf, t.Items)
	}
	payload := buf[frameHeaderSize:]
	if len(payload) > maxFramePayload {
		return fmt.Errorf("stream: frame payload %d exceeds cap %d", len(payload), maxFramePayload)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	l.buf = buf[:0]

	// Rotate before writing if the current segment is non-empty and this
	// frame would push it past the threshold.
	if l.segByte > headerSize && l.segByte+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("stream: write frame: %w", err)
	}
	l.segByte += int64(len(buf))
	l.segTxns += int64(len(txns))
	l.nextTID = tid + 1
	return nil
}

// rotate fsyncs and closes the current segment, then creates its successor.
// Ordering matters for recovery: a successor segment only ever exists once
// its predecessor is complete and durable, which is what lets readers treat
// any segment with a successor as immutable.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("stream: sync %s: %w", segName(l.seg), err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("stream: close %s: %w", segName(l.seg), err)
	}
	return l.createSegment(l.seg+1, l.segBase+l.segTxns)
}

// Sync makes all appended frames durable.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("stream: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("stream: sync on close: %w", err)
	}
	return l.f.Close()
}

// Len returns the total number of transactions in the log.
func (l *Log) Len() int64 { return l.segBase + l.segTxns }

// NextTID returns the smallest TID the next Append may use.
func (l *Log) NextTID() int64 { return l.nextTID }

// End returns the offset just past the last appended frame.
func (l *Log) End() Offset {
	return Offset{Seg: l.seg, Byte: l.segByte, Txns: l.segBase + l.segTxns}
}
