package txn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/taxonomy"
	"pgarm/internal/wire"
)

// testTaxonomy returns a small balanced hierarchy covering sampleDB's items.
func testTaxonomy(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tax, err := taxonomy.Balanced(1200, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	return tax
}

func writeColumnarOrDie(t *testing.T, db *DB, tax *taxonomy.Taxonomy, block int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.ptc")
	if err := WriteColumnar(path, db, tax, block); err != nil {
		t.Fatal(err)
	}
	return path
}

func scanAll(t *testing.T, s Scanner) []Transaction {
	t.Helper()
	var out []Transaction
	if err := s.Scan(func(tr Transaction) error {
		out = append(out, Transaction{TID: tr.TID, Items: item.Clone(tr.Items)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestColumnarRoundTrip(t *testing.T) {
	db := sampleDB()
	for _, tax := range []*taxonomy.Taxonomy{nil, testTaxonomy(t)} {
		for _, block := range []int{1, 2, 256} {
			path := writeColumnarOrDie(t, db, tax, block)
			f, err := OpenColumnar(path)
			if err != nil {
				t.Fatal(err)
			}
			if f.Len() != db.Len() {
				t.Fatalf("Len = %d, want %d", f.Len(), db.Len())
			}
			wantBlocks := (db.Len() + block - 1) / block
			if f.NumBlocks() != wantBlocks {
				t.Fatalf("block=%d NumBlocks = %d, want %d", block, f.NumBlocks(), wantBlocks)
			}
			got := scanAll(t, f)
			for i := 0; i < db.Len(); i++ {
				w := db.At(i)
				if got[i].TID != w.TID || !item.Equal(got[i].Items, w.Items) {
					t.Errorf("block=%d txn %d: %v != %v", block, i, got[i], w)
				}
			}
		}
	}
}

func TestColumnarScanTwice(t *testing.T) {
	path := writeColumnarOrDie(t, sampleDB(), nil, 2)
	f, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		n := 0
		if err := f.Scan(func(Transaction) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("round %d scanned %d", round, n)
		}
	}
	if f.Path() != path {
		t.Errorf("Path = %q", f.Path())
	}
}

func TestOpenAutodetectsFormat(t *testing.T) {
	db := sampleDB()
	dir := t.TempDir()
	rowPath := filepath.Join(dir, "row.ptx")
	if err := WriteFile(rowPath, db); err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(dir, "col.ptc")
	if err := WriteColumnar(colPath, db, nil, 2); err != nil {
		t.Fatal(err)
	}
	row, err := Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := row.(*File); !ok {
		t.Fatalf("Open(row) = %T", row)
	}
	col, err := Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := col.(*ColumnarFile); !ok {
		t.Fatalf("Open(columnar) = %T", col)
	}
	for _, s := range []Scanner{row, col} {
		got := scanAll(t, s)
		if len(got) != db.Len() {
			t.Fatalf("%T scanned %d", s, len(got))
		}
	}
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("garbage here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Error("unknown magic must fail")
	}
}

func TestColumnarBlockShardsPartition(t *testing.T) {
	db := &DB{}
	for i := 0; i < 37; i++ {
		db.Append(Transaction{TID: int64(i + 1), Items: []item.Item{item.Item(i), item.Item(i + 100)}})
	}
	f, err := OpenColumnar(writeColumnarOrDie(t, db, nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	seen := make(map[int]int)
	total := 0
	for s := 0; s < shards; s++ {
		err := f.ScanBlocks(BlockScanOptions{Shard: s, NumShards: shards}, func(b Block) error {
			seen[b.Ordinal]++
			if b.Ordinal%shards != s {
				t.Errorf("block %d delivered to shard %d", b.Ordinal, s)
			}
			total += len(b.Txns)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != f.NumBlocks() {
		t.Errorf("shards covered %d of %d blocks", len(seen), f.NumBlocks())
	}
	for ord, n := range seen {
		if n != 1 {
			t.Errorf("block %d delivered %d times", ord, n)
		}
	}
	if total != db.Len() {
		t.Errorf("shards delivered %d transactions, want %d", total, db.Len())
	}
}

func TestColumnarRejectsCorruption(t *testing.T) {
	db := sampleDB()
	path := writeColumnarOrDie(t, db, testTaxonomy(t), 2)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(b []byte) string {
		p := filepath.Join(dir, "c.ptc")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Truncations anywhere must fail to open (or to scan), never panic.
	for cut := 0; cut < len(orig); cut += 3 {
		f, err := OpenColumnar(write(orig[:cut]))
		if err != nil {
			continue
		}
		n := 0
		if err := f.Scan(func(Transaction) error { n++; return nil }); err == nil && n != db.Len() {
			t.Fatalf("truncation at %d silently dropped transactions (%d of %d)", cut, n, db.Len())
		}
	}

	// Directory bit flip breaks the checksum.
	flip := append([]byte(nil), orig...)
	flip[len(flip)-30] ^= 0x40 // inside the directory, ahead of the trailer
	if _, err := OpenColumnar(write(flip)); err == nil {
		t.Error("directory corruption must fail")
	}

	// Any version but the current one — the retired v1 included — fails at
	// open, naming the version and the way out.
	for _, v := range []byte{1, 99} {
		flip = append([]byte(nil), orig...)
		flip[4] = v
		_, err := OpenColumnar(write(flip))
		if err == nil {
			t.Fatalf("version %d must fail", v)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", v)) || !strings.Contains(msg, "pgarm-gen") {
			t.Errorf("version %d error does not name the version and pgarm-gen: %v", v, err)
		}
	}

	// An item outside the directory's literal [minItem, maxItem]: a one-block
	// file whose body is sizes [2], items [5, +4]; bumping the last delta
	// turns item 9 into 10, past the recorded maximum.
	one := NewDB([]Transaction{{TID: 1, Items: []item.Item{5, 9}}})
	body, err := os.ReadFile(writeColumnarOrDie(t, one, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	body[columnarHeaderSize+2]++
	f, err := OpenColumnar(write(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Scan(func(Transaction) error { return nil }); err == nil || !strings.Contains(err.Error(), "outside block bounds") {
		t.Errorf("out-of-bounds item must fail the scan, got %v", err)
	}

	// Row-format file through the columnar opener.
	rowPath := filepath.Join(dir, "row.ptx")
	if err := WriteFile(rowPath, db); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenColumnar(rowPath); err == nil {
		t.Error("row magic must fail")
	}
}

// The columnar layout re-arranges the row format's varints and adds a
// directory entry per block; it must not cost more than 5% over the row file.
func TestColumnarSizeNearRow(t *testing.T) {
	db, tax := writerTestDB(t)
	rowPath := filepath.Join(t.TempDir(), "x.ptx")
	if err := WriteFile(rowPath, db); err != nil {
		t.Fatal(err)
	}
	row, err := os.Stat(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	col, err := os.Stat(writeColumnarOrDie(t, db, tax, DefaultTxnsPerBlock))
	if err != nil {
		t.Fatal(err)
	}
	if float64(col.Size()) > 1.05*float64(row.Size()) {
		t.Errorf("columnar file %d bytes > 1.05 x row file %d bytes", col.Size(), row.Size())
	}
}

func TestWriteColumnarRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := NewDB([]Transaction{{TID: 5}, {TID: 1}})
	if err := WriteColumnar(filepath.Join(dir, "a.ptc"), bad, nil, 4); err == nil {
		t.Error("descending TIDs must fail")
	}
	bad2 := NewDB([]Transaction{{TID: 1, Items: []item.Item{5, 2}}})
	if err := WriteColumnar(filepath.Join(dir, "b.ptc"), bad2, nil, 4); err == nil {
		t.Error("non-canonical items must fail")
	}
	if err := WriteColumnar(filepath.Join(dir, "c.ptc"), sampleDB(), nil, maxTxnsPerBlock+1); err == nil {
		t.Error("oversized block must fail")
	}
}

// Scanning a row file must not allocate per transaction: the scratch basket
// buffer is reused across the scan (the no-retain contract), so allocations
// stay constant no matter how many transactions stream by.
func TestScanAllocsConstant(t *testing.T) {
	dir := t.TempDir()
	build := func(n int) *File {
		db := &DB{}
		for i := 0; i < n; i++ {
			db.Append(Transaction{TID: int64(i + 1), Items: []item.Item{item.Item(i % 7), item.Item(100 + i%13)}})
		}
		path := filepath.Join(dir, "a.ptx")
		if err := WriteFile(path, db); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	allocs := func(f *File) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := f.Scan(func(Transaction) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(build(50))
	large := allocs(build(5000))
	// Per-scan setup (open, bufio) allocates a fixed amount; 100× more
	// transactions must not add to it.
	if large > small+4 {
		t.Errorf("scan of 5000 txns allocates %.0f vs %.0f for 50: per-transaction allocation crept back in", large, small)
	}
}

// withDirectory returns a copy of the columnar file data whose directory is
// replaced by one holding the given raw entries (six uvarints each), with the
// trailer's length and checksum made right — what a corrupt writer, not a
// flipped bit, would leave behind.
func withDirectory(data []byte, entries [][6]uint64) []byte {
	tr := data[len(data)-columnarTrailerSize:]
	dirOff := binary.BigEndian.Uint64(tr[0:8])
	dir := wire.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		for _, v := range e {
			dir = wire.AppendUvarint(dir, v)
		}
	}
	out := append(append([]byte(nil), data[:dirOff]...), dir...)
	out = binary.BigEndian.AppendUint64(out, dirOff)
	out = binary.BigEndian.AppendUint64(out, uint64(len(dir)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(dir))
	return binary.BigEndian.AppendUint32(out, columnarMagic)
}

// TestColumnarDirectoryRejectsOutOfRangeFields: the six directory fields are
// narrowed through the cursor. A block length of 2^64-1 used to wrap the
// extent check (offset+length), open cleanly and panic the first scan on a
// negative buffer length.
func TestColumnarDirectoryRejectsOutOfRangeFields(t *testing.T) {
	db := sampleDB()
	orig, err := os.ReadFile(writeColumnarOrDie(t, db, nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenColumnar(writeBytes(t, orig))
	if err != nil || f.NumBlocks() < 2 {
		t.Fatalf("control file: %v", err)
	}
	var good [][6]uint64
	for _, m := range f.metas {
		good = append(good, [6]uint64{uint64(m.Offset), uint64(m.Length), uint64(m.Count), uint64(m.FirstTID), uint64(m.MinItem), uint64(m.MaxItem)})
	}
	dirOff := uint64(f.metas[len(f.metas)-1].Offset + f.metas[len(f.metas)-1].Length)
	edit := func(block, field int, v uint64) [][6]uint64 {
		es := append([][6]uint64(nil), good...)
		es[block][field] = v
		return es
	}
	const big = 1<<63 + 5
	for _, c := range []struct {
		name    string
		entries [][6]uint64
		ok      bool
	}{
		{"control", good, true},
		// Block 0 claims 2^64-1 bytes, so its extent wraps to end at 12;
		// block 1 then tiles [12, dirOff) and every check used to pass.
		{"length wraps the extent check", [][6]uint64{
			{columnarHeaderSize, 1<<64 - 1, 1, 1, 0, 1 << 20},
			{columnarHeaderSize - 1, dirOff - (columnarHeaderSize - 1), 1, 5, 0, 1 << 20},
		}, false},
		{"offset beyond int64", edit(1, 0, big), false},
		{"length beyond int64", edit(1, 1, big), false},
		{"count beyond int", edit(0, 2, big), false},
		{"first TID beyond int64", edit(0, 3, big), false},
		{"min item beyond int32", edit(0, 4, 1<<32+1), false},
		{"max item beyond int32", edit(0, 5, 1<<31), false},
	} {
		f, err := OpenColumnar(writeBytes(t, withDirectory(orig, c.entries)))
		if err == nil {
			n := 0
			err = f.Scan(func(Transaction) error { n++; return nil })
			if err == nil && n != db.Len() {
				t.Errorf("%s: scan delivered %d of %d transactions", c.name, n, db.Len())
			}
		}
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func writeBytes(t *testing.T, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "c.ptc")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBlockDecodeNoAllocs: once its scratch has grown to the largest block, a
// scan's decoder allocates nothing per block.
func TestBlockDecodeNoAllocs(t *testing.T) {
	db, tax := writerTestDB(t)
	path := writeColumnarOrDie(t, db, tax, 64)
	f, err := OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dec blockDecoder
	decodeAll := func() {
		for i := range f.metas {
			m := &f.metas[i]
			if _, err := dec.decode(m, data[m.Offset:m.Offset+m.Length]); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // grow the scratch
	if allocs := testing.AllocsPerRun(20, decodeAll); allocs != 0 {
		t.Errorf("steady-state block decode: %v allocs per %d blocks", allocs, len(f.metas))
	}
}
