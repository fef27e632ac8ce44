package txn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// Out-of-core partition writers. WriteFile and WriteColumnar take a fully
// materialized DB; the writers here accept one transaction at a time so a
// generator (or any other unbounded source) can spill paper-scale partitions
// to disk in constant memory. Both produce files byte-identical to their
// whole-DB counterparts for the same transaction sequence (asserted by
// TestRowWriterByteIdentity / TestColumnarWriterByteIdentity).

// RowWriter streams transactions into a row-format ("PGTX") file. The format
// carries the transaction count up front, before the count is known, so the
// encoded body is spilled to a temporary file in the destination directory
// and stitched behind the final header at Close.
//
// Append validates exactly as WriteFile does (strictly ascending TIDs,
// canonical itemsets). Errors are sticky: after any failure every call
// reports it and Close removes the temporary spill without creating path.
type RowWriter struct {
	path  string
	tmp   *os.File
	w     *bufio.Writer
	enc   rowEncoder
	count int64
	err   error
}

// NewRowWriter creates a streaming row-format writer targeting path. The
// destination is not created (or truncated) until Close succeeds.
func NewRowWriter(path string) (*RowWriter, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgtx-spill-*")
	if err != nil {
		return nil, fmt.Errorf("txn: create spill for %s: %w", path, err)
	}
	return &RowWriter{path: path, tmp: tmp, w: bufio.NewWriterSize(tmp, 1<<20)}, nil
}

// Append encodes one transaction into the spill.
func (rw *RowWriter) Append(t Transaction) error {
	if rw.err != nil {
		return rw.err
	}
	if err := rw.enc.write(rw.w, t); err != nil {
		return rw.fail(fmt.Errorf("txn: write %s: %w", rw.path, err))
	}
	rw.count++
	return nil
}

// Count returns the number of transactions appended so far.
func (rw *RowWriter) Count() int64 { return rw.count }

func (rw *RowWriter) fail(err error) error {
	rw.err = err
	return err
}

// Close finalizes the destination file: header (magic + count) followed by
// the spilled body. On any error — sticky or during finalization — the spill
// is removed and the destination left uncreated.
func (rw *RowWriter) Close() (err error) {
	if rw.tmp == nil {
		return rw.err
	}
	tmp := rw.tmp
	rw.tmp = nil
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	if rw.err != nil {
		return rw.err
	}
	if err := rw.w.Flush(); err != nil {
		return rw.fail(fmt.Errorf("txn: flush spill of %s: %w", rw.path, err))
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		return rw.fail(fmt.Errorf("txn: rewind spill of %s: %w", rw.path, err))
	}
	f, err := os.Create(rw.path)
	if err != nil {
		return rw.fail(fmt.Errorf("txn: create %s: %w", rw.path, err))
	}
	w := bufio.NewWriterSize(f, 1<<20)
	_, werr := w.Write(rowHeader(int(rw.count)))
	if werr == nil {
		_, werr = io.Copy(w, bufio.NewReaderSize(tmp, 1<<20))
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(rw.path)
		return rw.fail(fmt.Errorf("txn: write %s: %w", rw.path, werr))
	}
	return nil
}

// ColumnarWriter streams transactions into a columnar ("PGTC") file. Blocks
// are encoded and written as soon as they fill; only the block under
// construction and the (small) directory are held in memory, so the peak
// footprint is O(txnsPerBlock + blocks) regardless of partition size. The
// header is written up front and the directory + trailer at Close, matching
// WriteColumnar's layout byte for byte.
//
// Append clones item data into an internal arena, so callers may reuse their
// Items slices. Errors are sticky; Close removes the partial file on failure.
type ColumnarWriter struct {
	path         string
	txnsPerBlock int

	f      *os.File
	w      *bufio.Writer
	offset int64

	// Block under construction: TIDs plus [start,end) item ranges into the
	// arena (ranges, not slices, so arena growth cannot invalidate them).
	tids  []int64
	spans [][2]int
	arena []item.Item

	body    []byte
	entries []byte // directory entries, the block count is prepended at Close
	blocks  int
	count   int64

	prevTID  int64
	firstTxn bool
	err      error
}

// NewColumnarWriter creates a streaming columnar writer targeting path. tax
// and txnsPerBlock have WriteColumnar's semantics (nil tax = zero
// fingerprint; txnsPerBlock <= 0 selects the default).
func NewColumnarWriter(path string, tax *taxonomy.Taxonomy, txnsPerBlock int) (*ColumnarWriter, error) {
	if txnsPerBlock <= 0 {
		txnsPerBlock = DefaultTxnsPerBlock
	}
	if txnsPerBlock > maxTxnsPerBlock {
		return nil, fmt.Errorf("txn: txnsPerBlock %d exceeds %d", txnsPerBlock, maxTxnsPerBlock)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("txn: create %s: %w", path, err)
	}
	cw := &ColumnarWriter{
		path:         path,
		txnsPerBlock: txnsPerBlock,
		f:            f,
		w:            bufio.NewWriterSize(f, 1<<20),
		offset:       columnarHeaderSize,
		firstTxn:     true,
	}
	var hdr [columnarHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], columnarMagic)
	hdr[4] = columnarVersion
	var fp uint64
	if tax != nil {
		fp = tax.Fingerprint()
	}
	binary.BigEndian.PutUint64(hdr[5:13], fp)
	if _, err := cw.w.Write(hdr[:]); err != nil {
		cw.abort()
		return nil, fmt.Errorf("txn: write %s: %w", path, err)
	}
	return cw, nil
}

// Append buffers one transaction, flushing a full block to disk.
func (cw *ColumnarWriter) Append(t Transaction) error {
	if cw.err != nil {
		return cw.err
	}
	if t.TID < 0 || (!cw.firstTxn && t.TID <= cw.prevTID) {
		return cw.fail(fmt.Errorf("txn: write %s: TIDs not strictly ascending: %d after %d", cw.path, t.TID, cw.prevTID))
	}
	cw.prevTID, cw.firstTxn = t.TID, false
	if !item.IsSorted(t.Items) {
		return cw.fail(fmt.Errorf("txn: write %s: transaction %d items not canonical", cw.path, t.TID))
	}
	start := len(cw.arena)
	cw.arena = append(cw.arena, t.Items...)
	cw.tids = append(cw.tids, t.TID)
	cw.spans = append(cw.spans, [2]int{start, len(cw.arena)})
	cw.count++
	if len(cw.tids) == cw.txnsPerBlock {
		if err := cw.flushBlock(); err != nil {
			return cw.fail(fmt.Errorf("txn: write %s: %w", cw.path, err))
		}
	}
	return nil
}

// Count returns the number of transactions appended so far.
func (cw *ColumnarWriter) Count() int64 { return cw.count }

// flushBlock encodes the buffered transactions as one block: three columns
// and a directory entry.
func (cw *ColumnarWriter) flushBlock() error {
	n := len(cw.tids)
	// Baskets are canonical (ascending), so each one's first and last item
	// bound it.
	minIt, maxIt := item.Item(1), item.Item(0) // min > max: every basket empty
	empty := true
	for _, sp := range cw.spans {
		if sp[0] == sp[1] {
			continue
		}
		lo, hi := cw.arena[sp[0]], cw.arena[sp[1]-1]
		if empty || lo < minIt {
			minIt = lo
		}
		if empty || hi > maxIt {
			maxIt = hi
		}
		empty = false
	}

	body := cw.body[:0]
	for _, sp := range cw.spans {
		body = wire.AppendUvarint(body, uint64(sp[1]-sp[0]))
	}
	prev := cw.tids[0]
	for _, tid := range cw.tids[1:] {
		body = wire.AppendUvarint(body, uint64(tid-prev))
		prev = tid
	}
	for _, sp := range cw.spans {
		pi := item.Item(0)
		for i, x := range cw.arena[sp[0]:sp[1]] {
			d := uint64(x - pi)
			if i == 0 {
				d = uint64(x)
			}
			body = wire.AppendUvarint(body, d)
			pi = x
		}
	}
	cw.body = body
	if _, err := cw.w.Write(body); err != nil {
		return err
	}

	cw.entries = wire.AppendUvarint(cw.entries, uint64(cw.offset))
	cw.entries = wire.AppendUvarint(cw.entries, uint64(len(body)))
	cw.entries = wire.AppendUvarint(cw.entries, uint64(n))
	cw.entries = wire.AppendUvarint(cw.entries, uint64(cw.tids[0]))
	cw.entries = wire.AppendUvarint(cw.entries, uint64(minIt))
	cw.entries = wire.AppendUvarint(cw.entries, uint64(maxIt))
	cw.offset += int64(len(body))
	cw.blocks++

	cw.tids = cw.tids[:0]
	cw.spans = cw.spans[:0]
	cw.arena = cw.arena[:0]
	return nil
}

func (cw *ColumnarWriter) fail(err error) error {
	cw.err = err
	return err
}

// abort closes and removes the partial output.
func (cw *ColumnarWriter) abort() {
	if cw.f != nil {
		cw.f.Close()
		os.Remove(cw.path)
		cw.f = nil
	}
}

// Close flushes the final partial block and writes the directory and
// trailer. On any error — sticky or during finalization — the partial file
// is removed.
func (cw *ColumnarWriter) Close() error {
	if cw.f == nil {
		return cw.err
	}
	if cw.err != nil {
		cw.abort()
		return cw.err
	}
	werr := func() error {
		if len(cw.tids) > 0 {
			if err := cw.flushBlock(); err != nil {
				return err
			}
		}
		dir := wire.AppendUvarint(nil, uint64(cw.blocks))
		dir = append(dir, cw.entries...)
		if _, err := cw.w.Write(dir); err != nil {
			return err
		}
		var tr [columnarTrailerSize]byte
		binary.BigEndian.PutUint64(tr[0:8], uint64(cw.offset))
		binary.BigEndian.PutUint64(tr[8:16], uint64(len(dir)))
		binary.BigEndian.PutUint32(tr[16:20], crc32.ChecksumIEEE(dir))
		binary.BigEndian.PutUint32(tr[20:24], columnarMagic)
		if _, err := cw.w.Write(tr[:]); err != nil {
			return err
		}
		return cw.w.Flush()
	}()
	f := cw.f
	cw.f = nil
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(cw.path)
		return cw.fail(fmt.Errorf("txn: write %s: %w", cw.path, werr))
	}
	return nil
}
