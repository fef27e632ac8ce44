package txn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"pgarm/internal/item"
	"pgarm/internal/wire"
)

// Binary transaction file format, a node's simulated local disk:
//
//	magic  uint32  "PGTX" (0x50475458)
//	count  uvarint number of transactions
//	per transaction:
//	  tidDelta uvarint (TID delta from previous; first is absolute)
//	  n        uvarint item count
//	  items    n × uvarint (delta-encoded, ascending)
//
// Delta coding keeps R30F5-scale files small enough that repeated per-pass
// scans (and NPGM's per-fragment rescans) are I/O realistic without being
// punitive.

const fileMagic = 0x50475458

// WriteFile writes the database to path, creating or truncating it.
func WriteFile(path string, db *DB) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("txn: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("txn: close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeAll(w, db); err != nil {
		return fmt.Errorf("txn: write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("txn: flush %s: %w", path, err)
	}
	return nil
}

func writeAll(w *bufio.Writer, db *DB) error {
	if _, err := w.Write(rowHeader(db.Len())); err != nil {
		return err
	}
	var enc rowEncoder
	for _, t := range db.txns {
		if err := enc.write(w, t); err != nil {
			return err
		}
	}
	return nil
}

// rowHeader is the PGTX file header: the magic, then the transaction count.
func rowHeader(count int) []byte {
	return binary.AppendUvarint(binary.BigEndian.AppendUint32(nil, fileMagic), uint64(count))
}

// rowEncoder is the one PGTX record encoder: WriteFile and RowWriter both
// write their transactions through it, so they validate alike (strictly
// ascending TIDs, canonical baskets) and produce identical bytes. It carries
// the TID delta state from record to record.
type rowEncoder struct {
	prevTID int64
	started bool
	buf     []byte
}

func (e *rowEncoder) write(w *bufio.Writer, t Transaction) error {
	if t.TID < 0 || (e.started && t.TID <= e.prevTID) {
		return fmt.Errorf("TIDs not strictly ascending: %d after %d", t.TID, e.prevTID)
	}
	if !item.IsSorted(t.Items) {
		return fmt.Errorf("transaction %d items not canonical", t.TID)
	}
	buf := binary.AppendUvarint(e.buf[:0], uint64(t.TID-e.prevTID))
	e.prevTID, e.started = t.TID, true
	buf = binary.AppendUvarint(buf, uint64(len(t.Items)))
	prev := item.Item(0)
	for _, x := range t.Items {
		buf = binary.AppendUvarint(buf, uint64(x-prev)) // the first delta is the item itself
		prev = x
	}
	e.buf = buf
	_, err := w.Write(buf)
	return err
}

// File is a disk-backed transaction partition. Each Scan re-reads the file
// from the start, modelling the per-pass database scan of a shared-nothing
// node's local disk.
type File struct {
	path  string
	count int
	size  int64 // bytes at open, which sizes each scan's read buffer
}

// OpenFile validates the header of a transaction file and returns a Scanner
// over it.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("txn: read header of %s: %w", path, err)
	}
	if binary.BigEndian.Uint32(hdr[:]) != fileMagic {
		return nil, fmt.Errorf("txn: %s is not a transaction file (bad magic)", path)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("txn: read count of %s: %w", path, err)
	}
	// Every transaction occupies at least 2 bytes (TID delta + item count), so
	// a count the file cannot physically hold is corruption. Checking here
	// keeps ReadFile's count-sized preallocation bounded by the file size.
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("txn: stat %s: %w", path, err)
	}
	if count > uint64(fi.Size())/2 {
		return nil, fmt.Errorf("txn: %s: transaction count %d exceeds file capacity", path, count)
	}
	return &File{path: path, count: int(count), size: fi.Size()}, nil
}

// Path returns the backing file path.
func (f *File) Path() string { return f.path }

// Len returns the number of transactions recorded in the header.
func (f *File) Len() int { return f.count }

// Scan streams all transactions from disk to fn.
//
// The Transaction passed to fn aliases a scratch buffer owned by this scan:
// its Items slice is overwritten by the next transaction and MUST NOT be
// retained past fn's return (the no-retain contract every Scanner caller in
// this repo already honors — counting paths copy into their own extension
// scratch, and table builds copy at insert time). Use ReadFile to obtain
// stable transactions.
func (f *File) Scan(fn func(Transaction) error) error {
	file, err := os.Open(f.path)
	if err != nil {
		return fmt.Errorf("txn: open %s: %w", f.path, err)
	}
	defer file.Close()
	// Room for the whole file, up to 1 MiB: a partition is often far smaller,
	// and every scan allocates its reader afresh.
	r := bufio.NewReaderSize(file, int(min(f.size+1, 1<<20)))
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("txn: reread header of %s: %w", f.path, err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("txn: reread count of %s: %w", f.path, err)
	}
	tid := int64(-1) // nothing precedes the first TID
	items := make([]item.Item, 0, 64)
	for i := uint64(0); i < count; i++ {
		t, err := readTxn(r, i == 0, &tid, items[:0])
		if err != nil {
			return fmt.Errorf("txn: %s transaction %d: %w", f.path, i, err)
		}
		items = t.Items[:0]
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// readTxn decodes one transaction into the caller's scratch buffer, streaming
// from r (row files are scanned, not slurped, so this is the one decoder not
// on a wire.Dec). It takes each step from the rule functions the cursor uses
// — wire.NextTID, wire.NextItem — and so rejects exactly what a block or a
// frame decoder rejects: a decoded transaction is always canonical and
// corruption surfaces as an error, never as silently wrong itemsets.
func readTxn(r *bufio.Reader, first bool, tid *int64, items []item.Item) (Transaction, error) {
	d, err := binary.ReadUvarint(r)
	if err != nil {
		return Transaction{}, err
	}
	var ok bool
	if *tid, ok = wire.NextTID(*tid, d, first); !ok {
		return Transaction{}, errors.New("non-canonical TID delta (corrupt file?)")
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Transaction{}, err
	}
	if n > maxBasketSize {
		return Transaction{}, errors.New("implausible basket size (corrupt file?)")
	}
	prev := item.Item(0)
	for i := uint64(0); i < n; i++ {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return Transaction{}, err
		}
		if prev, ok = wire.NextItem(prev, d, i == 0); !ok {
			return Transaction{}, errors.New("non-canonical item (corrupt file?)")
		}
		items = append(items, prev)
	}
	return Transaction{TID: *tid, Items: items}, nil
}

// maxBasketSize bounds per-transaction item counts during decode; the
// generator's baskets are orders of magnitude smaller, so anything beyond it
// is corruption, not data.
const maxBasketSize = 1 << 20

// ReadFile loads a whole transaction file into memory. Itemsets are cloned
// out of the scan's scratch buffer, so the returned DB owns its memory.
func ReadFile(path string) (*DB, error) {
	f, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	db := &DB{txns: make([]Transaction, 0, f.Len())}
	if err := f.Scan(func(t Transaction) error {
		t.Items = item.Clone(t.Items)
		db.Append(t)
		return nil
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// Open opens a transaction partition in either on-disk format, dispatching on
// the 4-byte magic: row-oriented ("PGTX") or block-compressed columnar
// ("PGTC"). The returned Scanner is a *File or a *ColumnarFile.
func Open(path string) (Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", path, err)
	}
	var hdr [4]byte
	_, rerr := io.ReadFull(f, hdr[:])
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("txn: read magic of %s: %w", path, rerr)
	}
	switch binary.BigEndian.Uint32(hdr[:]) {
	case fileMagic:
		return OpenFile(path)
	case columnarMagic:
		return OpenColumnar(path)
	}
	return nil, fmt.Errorf("txn: %s is not a transaction file (unknown magic)", path)
}
