package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// A connection-oriented endpoint's connection opens with one hello from the
// dialing node and then carries each message as one frame:
//
//	hello = from uint16
//	frame = len uint32 | from uint16 | kind uint8 | payload
//
// big-endian. writeHello/readHello and writeFrame/readFrame are the only code
// that knows the layouts.
const (
	helloLen       = 2
	frameHeaderLen = 7
)

// frameChunk is the largest payload read into one exact-size allocation; one
// of at most BatchCap bytes is read into a NewBatch buffer instead. Longer
// payloads grow as their bytes arrive, so a corrupt length costs what the
// peer actually sent, not what the header claims.
const frameChunk = 64 << 10

// writeHello writes the hello of a connection node from dialed.
func writeHello(w io.Writer, from int) error {
	var b [helloLen]byte
	binary.BigEndian.PutUint16(b[:], uint16(from))
	_, err := w.Write(b[:])
	return err
}

// readHello reads the hello of a connection node self accepted, where
// seen[j] reports whether node j is already connected (len(seen) is the mesh
// size, and self < len(seen)). Only a lower-numbered node dials self, and
// each only once, so any other id is rejected with an error naming both
// nodes; accepting it would overwrite, and leak, a live connection.
func readHello(r io.Reader, self int, seen []bool) (int, error) {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("cluster: read hello at node %d: %w", self, err)
	}
	from := int(binary.BigEndian.Uint16(b[:]))
	switch {
	case from >= self:
		return 0, fmt.Errorf("cluster: node %d got a hello from node %d, not a lower-numbered node of %d", self, from, len(seen))
	case seen[from]:
		return 0, fmt.Errorf("cluster: node %d got a second hello from node %d", self, from)
	}
	return from, nil
}

// writeFrame writes one frame of payload, sent by node from.
func writeFrame(w io.Writer, from int, kind uint8, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint16(hdr[4:6], uint16(from))
	hdr[6] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from the connection to peer. io.EOF means the
// stream ended cleanly between frames; every other failure is an error naming
// the peer. A frame whose header names a sender other than peer is rejected:
// only peer writes to this connection.
func readFrame(r io.Reader, peer int) (Message, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("cluster: frame header from node %d: %w", peer, err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if from := int(binary.BigEndian.Uint16(hdr[4:6])); from != peer {
		return Message{}, fmt.Errorf("cluster: frame on the connection from node %d claims sender node %d", peer, from)
	}
	var p []byte
	if n > 0 && n <= BatchCap {
		p = NewBatch()
	} else {
		p = make([]byte, 0, min(n, frameChunk))
	}
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(n-len(p), len(p)))
		}
		got, err := io.ReadFull(r, p[len(p):min(cap(p), n)])
		p = p[:len(p)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Message{}, fmt.Errorf("cluster: frame from node %d: %d of %d payload bytes: %w", peer, len(p), n, err)
		}
	}
	return Message{From: peer, Kind: hdr[6], Payload: p}, nil
}
