package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// Block-compressed columnar transaction format, the second on-disk partition
// layout ("PGTC", version 2). Where the row format ("PGTX") interleaves one
// transaction after another, the columnar format groups a fixed number of
// transactions into independently decodable blocks and stores each block
// column-separated:
//
//	header:   magic uint32 "PGTC" | version byte | taxonomy fingerprint uint64
//	blocks:   block 0 | block 1 | ... (each at the offset its directory
//	          entry records; nothing else between blocks)
//	directory: numBlocks uvarint, then per block six uvarints:
//	            offset   (file offset of the block body)
//	            length   (block body bytes)
//	            count    (transactions in the block)
//	            firstTID (absolute TID of the block's first txn)
//	            minItem  ┐ bounds over the block's literal items;
//	            maxItem  ┘ min > max encodes "every basket empty"
//	trailer:  dirOffset uint64 | dirLen uint64 | crc32(directory) uint32 |
//	          end magic uint32 "PGTC"   (24 bytes, fixed, at EOF)
//
// One block body is three delta+varint columns on the internal/wire codecs:
//
//	sizes column: count × uvarint  (basket sizes)
//	TID column:   count-1 × uvarint (TID deltas; txn 0's TID is the
//	              directory's firstTID)
//	item column:  per transaction, first item absolute then ascending
//	              deltas — the same canonical coding as the row format,
//	              but with all varint streams of a kind adjacent
//
// The directory makes every block independently locatable, which is what the
// format is for: driver.CountPhase hands each scan worker its own blocks
// to pread and decode, so decode parallelizes instead of every worker
// re-reading the whole partition. The item bounds are a decode-time integrity
// check. The header fingerprint names the hierarchy the partition was
// generated for; CheckTaxonomy refuses to mine it under another one.
const (
	columnarMagic   = 0x50475443 // "PGTC"
	columnarVersion = 2

	columnarHeaderSize  = 4 + 1 + 8
	columnarTrailerSize = 8 + 8 + 4 + 4

	// DefaultTxnsPerBlock is the block granularity every production writer
	// uses: fine enough that a partition splits evenly across scan workers,
	// coarse enough that per-block directory overhead stays well under a
	// percent of the data.
	DefaultTxnsPerBlock = 256
	maxTxnsPerBlock     = 1 << 20
)

// BlockMeta is one block's directory entry: location and shape. Values are
// immutable after open.
type BlockMeta struct {
	Ordinal  int
	Offset   int64
	Length   int64
	Count    int
	FirstTID int64
	// MinItem/MaxItem bound the items stored in the block; MinItem > MaxItem
	// means every transaction is empty.
	MinItem item.Item
	MaxItem item.Item
}

// Block is one decoded block as delivered by ScanBlocks. Txns alias scratch
// buffers owned by the scan: valid only until the callback returns.
type Block struct {
	Ordinal int
	Meta    *BlockMeta
	Txns    []Transaction
}

// ScanStats count what a block-granular scan read.
type ScanStats struct {
	BlocksScanned int64 // blocks read and decoded
	BytesDecoded  int64 // encoded bytes of the decoded blocks
}

// BlockScanOptions parameterize one ScanBlocks pass.
type BlockScanOptions struct {
	// Shard/NumShards restrict the scan to blocks whose ordinal o satisfies
	// o % NumShards == Shard, the block-granular analogue of
	// driver.CountPhase's record-ordinal sharding. NumShards <= 1 scans every
	// block.
	Shard     int
	NumShards int
	// Stats, when non-nil, receives the scan's counters.
	Stats *ScanStats
}

// BlockScanner is the block-granular scan contract columnar partitions add on
// top of Scanner. driver.CountPhase shards by block — parallelizing decode
// itself — whenever the source implements it.
type BlockScanner interface {
	Scanner
	// NumBlocks returns the number of storage blocks.
	NumBlocks() int
	// ScanBlocks streams decoded blocks to fn in storage order (within the
	// selected shard). A non-nil error from fn aborts the scan and is
	// returned. Block contents alias per-scan scratch: no-retain.
	ScanBlocks(opts BlockScanOptions, fn func(Block) error) error
}

// WriteColumnar writes the database to path in the columnar format,
// txnsPerBlock transactions per block (<= 0 selects DefaultTxnsPerBlock).
// tax supplies the header fingerprint; a nil tax writes a zero fingerprint,
// which CheckTaxonomy accepts under any hierarchy.
// It is a convenience wrapper over the streaming ColumnarWriter.
func WriteColumnar(path string, db *DB, tax *taxonomy.Taxonomy, txnsPerBlock int) error {
	cw, err := NewColumnarWriter(path, tax, txnsPerBlock)
	if err != nil {
		return err
	}
	for _, t := range db.txns {
		if err := cw.Append(t); err != nil {
			cw.Close()
			return err
		}
	}
	return cw.Close()
}

// ColumnarFile is a disk-backed columnar transaction partition. Open parses
// and validates the directory once; every scan opens a private file handle
// and preads only its own blocks, so concurrent independent scans (one per
// worker shard) are safe.
type ColumnarFile struct {
	path        string
	count       int
	fingerprint uint64
	metas       []BlockMeta
}

// OpenColumnar validates a columnar transaction file — header, trailer,
// directory checksum, and the internal consistency of every directory entry —
// and returns a BlockScanner over it.
func OpenColumnar(path string) (*ColumnarFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", path, err)
	}
	defer f.Close()
	cf, err := parseColumnar(f)
	if err != nil {
		return nil, fmt.Errorf("txn: %s: %w", path, err)
	}
	cf.path = path
	return cf, nil
}

func parseColumnar(f *os.File) (*ColumnarFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < columnarHeaderSize+columnarTrailerSize {
		return nil, fmt.Errorf("file too short (%d bytes)", size)
	}
	var hdr [columnarHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != columnarMagic {
		return nil, fmt.Errorf("not a columnar transaction file (bad magic)")
	}
	if hdr[4] != columnarVersion {
		return nil, fmt.Errorf("unsupported columnar version %d (this build reads version %d; regenerate the partition with pgarm-gen)", hdr[4], columnarVersion)
	}
	cf := &ColumnarFile{fingerprint: binary.BigEndian.Uint64(hdr[5:13])}

	var tr [columnarTrailerSize]byte
	if _, err := f.ReadAt(tr[:], size-columnarTrailerSize); err != nil {
		return nil, fmt.Errorf("read trailer: %w", err)
	}
	if binary.BigEndian.Uint32(tr[20:24]) != columnarMagic {
		return nil, fmt.Errorf("truncated file (bad end magic)")
	}
	dirOff := binary.BigEndian.Uint64(tr[0:8])
	dirLen := binary.BigEndian.Uint64(tr[8:16])
	if dirOff < columnarHeaderSize || dirLen > uint64(size) ||
		dirOff+dirLen != uint64(size-columnarTrailerSize) {
		return nil, fmt.Errorf("directory bounds [%d,+%d) inconsistent with file size %d", dirOff, dirLen, size)
	}
	dir := make([]byte, dirLen)
	if _, err := f.ReadAt(dir, int64(dirOff)); err != nil {
		return nil, fmt.Errorf("read directory: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(dir), binary.BigEndian.Uint32(tr[16:20]); got != want {
		return nil, fmt.Errorf("directory checksum mismatch (%08x != %08x)", got, want)
	}

	d := wire.NewDec(dir)
	numBlocks := d.Count(6) // six fields per entry
	cf.metas = make([]BlockMeta, 0, numBlocks)
	nextOff := int64(columnarHeaderSize)
	prevTID := int64(0)
	for b := 0; b < numBlocks; b++ {
		m := BlockMeta{
			Ordinal:  b,
			Offset:   d.I64(),
			Length:   d.I64(),
			Count:    d.Int(),
			FirstTID: d.I64(),
			MinItem:  d.Item(),
			MaxItem:  d.Item(),
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("directory entry %d: %w", b, err)
		}
		// Blocks must tile [header, directory) exactly, in order: that makes
		// every block independently locatable and rules out overlapping or
		// dangling extents in corrupt directories.
		if m.Offset != nextOff || m.Length == 0 || m.Length > int64(dirOff)-m.Offset {
			return nil, fmt.Errorf("directory entry %d: block extent [%d,+%d) out of place", b, m.Offset, m.Length)
		}
		nextOff = m.Offset + m.Length
		// The sizes column alone needs one byte per transaction, so a count
		// beyond the block's byte length is corruption; rejecting it here also
		// bounds the decoder's count-sized scratch by the block size.
		if m.Count == 0 || m.Count > maxTxnsPerBlock || int64(m.Count) > m.Length {
			return nil, fmt.Errorf("directory entry %d: implausible block count %d", b, m.Count)
		}
		// TIDs are strictly ascending file-wide and in-block deltas are
		// >= 1, so block b's first TID must clear the previous block's
		// minimum possible last TID (its first TID + count - 1).
		if m.FirstTID > math.MaxInt64-int64(m.Count) || (b > 0 && m.FirstTID < prevTID) {
			return nil, fmt.Errorf("directory entry %d: first TID %d not ascending", b, m.FirstTID)
		}
		prevTID = m.FirstTID + int64(m.Count)
		cf.metas = append(cf.metas, m)
		cf.count += m.Count
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	if nextOff != int64(dirOff) {
		return nil, fmt.Errorf("blocks end at %d but directory starts at %d", nextOff, dirOff)
	}
	return cf, nil
}

// Path returns the backing file path.
func (f *ColumnarFile) Path() string { return f.path }

// Len returns the total number of transactions (sum of block counts).
func (f *ColumnarFile) Len() int { return f.count }

// NumBlocks returns the number of storage blocks.
func (f *ColumnarFile) NumBlocks() int { return len(f.metas) }

// Fingerprint returns the taxonomy fingerprint recorded at write time; zero
// when the writer was given no taxonomy.
func (f *ColumnarFile) Fingerprint() uint64 { return f.fingerprint }

// ErrTaxonomyMismatch reports a columnar partition generated for a different
// hierarchy than the one the run mines under.
var ErrTaxonomyMismatch = errors.New("partition was generated under a different taxonomy")

// CheckTaxonomy returns an error wrapping ErrTaxonomyMismatch when src is a
// columnar partition whose recorded fingerprint differs from tax's. Item ids
// mean nothing without their hierarchy, so mining such a file would produce
// plausible but wrong supports. Row files, in-memory databases and columnar
// files written without a taxonomy (zero fingerprint) carry no identity and
// pass.
func CheckTaxonomy(src Scanner, tax *taxonomy.Taxonomy) error {
	cf, ok := src.(*ColumnarFile)
	if !ok || cf.fingerprint == 0 || cf.fingerprint == tax.Fingerprint() {
		return nil
	}
	return fmt.Errorf("txn: %s: %w (file fingerprint %016x, run taxonomy %016x)",
		cf.path, ErrTaxonomyMismatch, cf.fingerprint, tax.Fingerprint())
}

// OpenChecked is Open for a partition about to be mined under tax: it also
// runs CheckTaxonomy, so no caller can forget the second half.
func OpenChecked(path string, tax *taxonomy.Taxonomy) (Scanner, error) {
	src, err := Open(path)
	if err == nil {
		err = CheckTaxonomy(src, tax)
	}
	if err != nil {
		return nil, err
	}
	return src, nil
}

// Scan streams all transactions in storage order, satisfying Scanner. Like
// File.Scan, the Transaction's Items alias per-scan scratch: no-retain.
func (f *ColumnarFile) Scan(fn func(Transaction) error) error {
	// The decoder guarantees strictly ascending TIDs inside each block and the
	// directory bounds each block's first TID, but only a sequential pass can
	// see a block's true last TID overlap its successor — check it here.
	last, seen := int64(0), false
	return f.ScanBlocks(BlockScanOptions{}, func(b Block) error {
		for _, t := range b.Txns {
			if seen && t.TID <= last {
				return fmt.Errorf("txn: %s block %d: TID %d not ascending across blocks (corrupt file?)", f.path, b.Ordinal, t.TID)
			}
			last, seen = t.TID, true
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanBlocks implements BlockScanner: it reads and decodes exactly the
// blocks in this shard, reusing one set of scratch buffers across blocks.
// Every scan opens a private handle and preads, so concurrent shard scans
// never share a file offset.
func (f *ColumnarFile) ScanBlocks(opts BlockScanOptions, fn func(Block) error) error {
	file, err := os.Open(f.path)
	if err != nil {
		return fmt.Errorf("txn: open %s: %w", f.path, err)
	}
	defer file.Close()
	shard, nShards := opts.Shard, opts.NumShards
	if nShards <= 1 {
		shard, nShards = 0, 1
	}
	var dec blockDecoder
	var buf []byte
	for i := range f.metas {
		if i%nShards != shard {
			continue
		}
		m := &f.metas[i]
		if int64(cap(buf)) < m.Length {
			buf = make([]byte, m.Length)
		}
		buf = buf[:m.Length]
		if _, err := file.ReadAt(buf, m.Offset); err != nil {
			return fmt.Errorf("txn: %s block %d: read: %w", f.path, i, err)
		}
		txns, err := dec.decode(m, buf)
		if err != nil {
			return fmt.Errorf("txn: %s block %d: %w", f.path, i, err)
		}
		if opts.Stats != nil {
			opts.Stats.BlocksScanned++
			opts.Stats.BytesDecoded += m.Length
		}
		if err := fn(Block{Ordinal: i, Meta: m, Txns: txns}); err != nil {
			return err
		}
	}
	return nil
}

// blockDecoder holds the reusable scratch one scan decodes every block into:
// a transaction slice, the sizes column, and a single item arena the
// transactions' itemsets point into. Steady-state decode allocates nothing.
type blockDecoder struct {
	txns  []Transaction
	sizes []int
	arena []item.Item
}

// decode parses one block body against its directory entry. Beyond the
// format itself it enforces every invariant the writer guarantees — exact
// column lengths, ascending TIDs, canonical in-range itemsets, items inside
// the directory's bounds, no trailing bytes — so a corrupt block is an error,
// never a silently short or wrong scan.
func (bd *blockDecoder) decode(m *BlockMeta, buf []byte) ([]Transaction, error) {
	n := m.Count
	if cap(bd.txns) < n {
		bd.txns = make([]Transaction, n)
		bd.sizes = make([]int, n)
	}
	txns := bd.txns[:n]
	sizes := bd.sizes[:n]
	d := wire.NewDec(buf)

	// Sizes column; the total sizes the item arena.
	total := 0
	for i := range sizes {
		sz := d.U64()
		if sz > maxBasketSize {
			return nil, fmt.Errorf("implausible basket size %d", sz)
		}
		sizes[i] = int(sz)
		total += int(sz)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sizes column: %w", err)
	}
	// Every item takes at least one encoded byte, so the item column cannot
	// hold more items than the block has bytes left; rejecting impossible
	// totals here keeps the arena allocation bounded by the block size.
	if total > d.Len() {
		return nil, fmt.Errorf("item total %d exceeds block capacity", total)
	}

	// TID column: n-1 deltas from the directory's firstTID.
	tid := m.FirstTID
	txns[0].TID = tid
	for i := 1; i < n; i++ {
		tid = d.TID(tid, false)
		txns[i].TID = tid
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("TID column: %w", err)
	}

	// Item column into the arena; itemsets are sub-slices of it. A run is
	// strictly ascending, so its ends carry the directory's bounds check.
	if cap(bd.arena) < total {
		bd.arena = make([]item.Item, total)
	}
	arena := bd.arena[:0]
	for i, sz := range sizes {
		start := len(arena)
		arena = d.Run(arena, sz)
		if s := arena[start:]; len(s) > 0 && (s[0] < m.MinItem || s[len(s)-1] > m.MaxItem) {
			return nil, fmt.Errorf("item outside block bounds [%d,%d] at txn %d", m.MinItem, m.MaxItem, i)
		}
		txns[i].Items = arena[start:len(arena):len(arena)]
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("item column: %w", err)
	}
	return txns, nil
}
