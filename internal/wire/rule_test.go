package wire_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// TestRowReaderSharesCanonicalRule: txn's row reader streams from a
// bufio.Reader instead of a Dec, but takes every step from NextItem/NextTID —
// so a PGTX file whose one basket is a case of the canonical-run table is
// accepted or refused exactly as Dec.Run accepts or refuses the run.
func TestRowReaderSharesCanonicalRule(t *testing.T) {
	file := func(tidDeltas []uint64, basket []uint64) string {
		b := binary.BigEndian.AppendUint32(nil, 0x50475458) // "PGTX"
		b = wire.AppendUvarint(b, uint64(len(tidDeltas)))
		for _, dt := range tidDeltas {
			b = wire.AppendUvarint(b, dt)
			b = wire.AppendUvarint(b, uint64(len(basket)))
			for _, v := range basket {
				b = wire.AppendUvarint(b, v)
			}
		}
		path := filepath.Join(t.TempDir(), "case.ptx")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scan := func(path string) ([]txn.Transaction, error) {
		f, err := txn.OpenFile(path)
		if err != nil {
			return nil, err
		}
		var out []txn.Transaction
		err = f.Scan(func(tr txn.Transaction) error {
			out = append(out, txn.Transaction{TID: tr.TID, Items: item.Clone(tr.Items)})
			return nil
		})
		return out, err
	}
	for _, c := range wire.CanonicalRunCases {
		got, err := scan(file([]uint64{0}, c.Vals))
		switch {
		case c.OK && (err != nil || len(got) != 1 || len(got[0].Items) != len(c.Vals) || !item.IsSorted(got[0].Items)):
			t.Errorf("%s: scanned %v, err %v", c.Name, got, err)
		case !c.OK && err == nil:
			t.Errorf("%s: accepted as %v", c.Name, got)
		}
	}
	// The TID column follows NextTID: the first value is absolute (zero
	// allowed), every later one a non-zero delta that stays within int64.
	for _, c := range []struct {
		name   string
		deltas []uint64
		ok     bool
	}{
		{"ascending from zero", []uint64{0, 1, 7}, true},
		{"first is the largest TID", []uint64{1<<63 - 1}, true},
		{"first beyond int64", []uint64{1 << 63}, false},
		{"zero delta after the first", []uint64{3, 0}, false},
		{"delta wraps past MaxInt64", []uint64{1<<63 - 2, 2}, false},
	} {
		got, err := scan(file(c.deltas, []uint64{5}))
		if (err == nil) != c.ok || (c.ok && len(got) != len(c.deltas)) {
			t.Errorf("TIDs %s: scanned %v, err %v", c.name, got, err)
		}
	}
}
