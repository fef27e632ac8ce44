package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pgarm/internal/item"
	"pgarm/internal/txn"
)

// Reader tails a log directory. It holds no open files between calls, so a
// single Reader may be used from one goroutine while a Log in another
// process (or goroutine) appends; Prefix scanners are additionally safe for
// concurrent Scan calls, which is what lets the driver's shard workers each
// walk the prefix independently.
type Reader struct {
	dir string
}

// OpenReader opens a log directory for reading. The directory must exist
// and contain at least segment 0 (OpenLog creates it).
func OpenReader(dir string) (*Reader, error) {
	if _, err := os.Stat(filepath.Join(dir, segName(0))); err != nil {
		return nil, fmt.Errorf("stream: open log %s: %w", dir, err)
	}
	return &Reader{dir: dir}, nil
}

// ReadFrom replays complete frames starting at off, invoking fn once per
// transaction, and returns the offset just past the last complete frame it
// consumed. Hitting the torn or still-being-written tail of the last
// segment is not an error: ReadFrom simply stops at the preceding frame
// boundary, and a later call with the returned offset picks up whatever has
// been appended since. Baskets passed to fn live in a scratch buffer that
// is reused; fn must copy anything it keeps.
//
// off must be a frame boundary previously returned by ReadFrom (or Log.End),
// or the zero Offset for the start of the log.
func (r *Reader) ReadFrom(off Offset, fn func(t txn.Transaction) error) (Offset, error) {
	if off.Byte != 0 && off.Byte < headerSize {
		return off, fmt.Errorf("stream: offset byte %d inside segment header", off.Byte)
	}
	if off.Byte == 0 {
		off.Byte = headerSize
	}
	var scratch []item.Item
	prevTID := int64(-1) // unknown when resuming; validated from the first frame on
	for {
		b, err := os.ReadFile(filepath.Join(r.dir, segName(off.Seg)))
		if err != nil {
			return off, fmt.Errorf("stream: read segment %d: %w", off.Seg, err)
		}
		// Only a segment-start offset pins the cumulative count; past the
		// header the offset's Txns already includes this segment's earlier
		// frames, so the base check must not use it.
		base := int64(-1)
		if off.Byte == headerSize {
			base = off.Txns
		}
		if err := checkHeader(b, off.Seg, base); err != nil {
			return off, fmt.Errorf("stream: segment %d: %w", off.Seg, err)
		}
		if off.Byte > int64(len(b)) {
			return off, fmt.Errorf("stream: offset byte %d past segment %d end %d", off.Byte, off.Seg, len(b))
		}
		for {
			payload, next, ferr := sliceFrame(b, off.Byte)
			if ferr == io.EOF || ferr == errShortFrame {
				nextSeg := filepath.Join(r.dir, segName(off.Seg+1))
				if _, serr := os.Stat(nextSeg); serr != nil {
					// Last segment: a short frame is just the writer's
					// in-flight tail. Wait at the boundary.
					return off, nil
				}
				// A successor exists, so this segment is immutable and
				// complete. A short frame here would be corruption — but we
				// may have raced rotation: re-read once to pick up bytes
				// appended between our read and the rotation.
				if ferr == errShortFrame {
					b2, rerr := os.ReadFile(filepath.Join(r.dir, segName(off.Seg)))
					if rerr != nil {
						return off, fmt.Errorf("stream: re-read segment %d: %w", off.Seg, rerr)
					}
					if int64(len(b2)) > int64(len(b)) {
						b = b2
						continue
					}
					return off, fmt.Errorf("stream: segment %d: torn frame at %d with successor present", off.Seg, off.Byte)
				}
				// Clean EOF with a successor: advance to the next segment.
				off = Offset{Seg: off.Seg + 1, Byte: headerSize, Txns: off.Txns}
				break // outer loop reads the next segment
			}
			if ferr != nil {
				return off, fmt.Errorf("stream: segment %d: frame at %d: %w", off.Seg, off.Byte, ferr)
			}
			n, tid, derr := decodeFrame(payload, prevTID, &scratch, fn)
			if derr != nil {
				return off, fmt.Errorf("stream: segment %d: frame at %d: %w", off.Seg, off.Byte, derr)
			}
			if n > 0 {
				prevTID = tid
			}
			off = Offset{Seg: off.Seg, Byte: next, Txns: off.Txns + n}
		}
	}
}

// Prefix returns a txn.Scanner over exactly the first off.Txns transactions
// of the log — the frozen prefix an incremental checkpoint was mined over.
// Each Scan call opens its own file handles and reuses a private basket
// scratch, so concurrent Scans (the driver's shard workers) are safe; fn
// must not retain the basket slice.
func (r *Reader) Prefix(off Offset) *PrefixScanner {
	return &PrefixScanner{dir: r.dir, limit: off.Txns}
}

// PrefixScanner is a stateless txn.Scanner over a log prefix.
type PrefixScanner struct {
	dir   string
	limit int64
}

// Len returns the number of transactions the scanner delivers.
func (p *PrefixScanner) Len() int { return int(p.limit) }

// errPrefixDone stops the replay once the prefix limit is reached.
var errPrefixDone = fmt.Errorf("stream: prefix done")

// Scan invokes fn for the first Len() transactions of the log in order.
func (p *PrefixScanner) Scan(fn func(t txn.Transaction) error) error {
	if p.limit == 0 {
		return nil
	}
	r := Reader{dir: p.dir}
	seen := int64(0)
	end, err := r.ReadFrom(Offset{}, func(t txn.Transaction) error {
		if seen == p.limit {
			return errPrefixDone
		}
		seen++
		return fn(t)
	})
	if errors.Is(err, errPrefixDone) {
		return nil
	}
	if err != nil {
		return err
	}
	if seen < p.limit {
		return fmt.Errorf("stream: prefix wants %d txns, log ends at %d (offset %+v)", p.limit, seen, end)
	}
	return nil
}
