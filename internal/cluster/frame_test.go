package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// frame is the sender's encoding of one message.
func frame(from int, kind uint8, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, from, kind, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestFrameRejectsCorruptHeaders: a frame header is peer-fed bytes like any
// other format. A sender id other than the connection's peer and a payload
// shorter than the declared length end the read with an error naming the
// peer, and a huge declared length allocates only what arrived.
func TestFrameRejectsCorruptHeaders(t *testing.T) {
	huge := append([]byte{0xff, 0xff, 0xff, 0xff, 0, 1, 3}, make([]byte, 10)...)
	for _, c := range []struct {
		name string
		in   []byte
		want string // substring of the error; "" = accepted
		is   error
	}{
		{"control", frame(1, 3, []byte("abc")), "", nil},
		{"empty payload", frame(1, 3, nil), "", nil},
		{"clean end", nil, "EOF", io.EOF},
		{"spoofed from", frame(2, 3, []byte("abc")), "connection from node 1 claims sender node 2", nil},
		{"4 GiB length, 10 bytes sent", huge, "node 1: 10 of 4294967295 payload bytes", io.ErrUnexpectedEOF},
		{"truncated header", frame(1, 3, nil)[:4], "frame header from node 1", io.ErrUnexpectedEOF},
		{"truncated payload", frame(1, 3, []byte("abc"))[:9], "2 of 3 payload bytes", io.ErrUnexpectedEOF},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := readFrame(bytes.NewReader(c.in), 1)
		runtime.ReadMemStats(&after)
		if c.want == "" {
			if err != nil || m.From != 1 || m.Kind != 3 {
				t.Errorf("%s: got %+v, %v", c.name, m, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: err %v does not wrap %v", c.name, err, c.is)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", c.name, len(c.in), grew)
		}
	}
}

// TestFrameSmallPayloadOneAllocation: a payload up to frameChunk is read into
// one exact-size buffer. The other allocation per frame is the header the
// io.Reader interface makes escape.
func TestFrameSmallPayloadOneAllocation(t *testing.T) {
	in := frame(1, 3, make([]byte, frameChunk))
	r := bytes.NewReader(in)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(in)
		if m, err := readFrame(r, 1); err != nil || len(m.Payload) != frameChunk || cap(m.Payload) != frameChunk {
			t.Fatalf("read: %d bytes (cap %d), %v", len(m.Payload), cap(m.Payload), err)
		}
	})
	if allocs > 2 {
		t.Errorf("%v allocations per 64 KiB frame, want the header and one payload buffer", allocs)
	}
}

// TestFrameSpoofedSenderFailsEndpoint: over a live TCP fabric, a frame that
// claims another sender is not delivered; the receiving endpoint shuts down
// with an error naming both ids.
func TestFrameSpoofedSenderFailsEndpoint(t *testing.T) {
	f, err := NewTCPFabric(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tc := f.endpoints[1].conns[0]
	tc.mu.Lock()
	err = writeFrame(tc.w, 5, 1, []byte("forged"))
	if err == nil {
		err = tc.w.Flush()
	}
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := <-f.Endpoint(0).Inbox(); ok {
		t.Fatalf("spoofed frame delivered: %+v", m)
	}
	if err := f.Endpoint(0).Err(); err == nil || !strings.Contains(err.Error(), "connection from node 1 claims sender node 5") {
		t.Errorf("endpoint error %v, want one naming nodes 1 and 5", err)
	}
}

// FuzzFrame feeds arbitrary bytes to the frame reader: it may not panic, and
// an accepted frame re-encodes to exactly the bytes it consumed (the header
// has one spelling).
func FuzzFrame(f *testing.F) {
	f.Add(frame(1, 3, []byte("payload")))
	f.Add(frame(1, 10, nil))
	f.Add(append(frame(1, 8, make([]byte, 300)), frame(1, 3, []byte{1})...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 1, 3, 9})
	f.Add(frame(2, 3, []byte("spoofed")))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		m, err := readFrame(r, 1)
		if err != nil {
			return
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(frame(m.From, m.Kind, m.Payload), consumed) {
			t.Fatalf("re-encoded %+v differs from the %d bytes read", m, len(consumed))
		}
	})
}

// TestReadHelloExhaustive checks readHello against every two-byte hello in a
// few handshake states: it accepts exactly the ids of lower-numbered nodes
// not yet connected, rejects everything else with an error naming both
// nodes, and reads back what writeHello wrote.
func TestReadHelloExhaustive(t *testing.T) {
	for _, s := range []struct {
		self int
		seen []bool
	}{
		{0, []bool{false, false}},
		{1, []bool{false, false}},
		{2, []bool{true, false, false}},
		{3, []bool{false, true, false, false, false}},
	} {
		for v := 0; v < 1<<16; v++ {
			from, err := readHello(bytes.NewReader([]byte{byte(v >> 8), byte(v)}), s.self, s.seen)
			if ok := v < s.self && !s.seen[v]; ok {
				if err != nil || from != v {
					t.Fatalf("self %d, seen %v: hello %d read as %d, %v", s.self, s.seen, v, from, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d", s.self)) || !strings.Contains(err.Error(), fmt.Sprintf("node %d", v)) {
				t.Fatalf("self %d, seen %v: hello %d: err %v, want one naming both nodes", s.self, s.seen, v, err)
			}
		}
		for from := 0; from < s.self; from++ {
			var b bytes.Buffer
			if err := writeHello(&b, from); err != nil || b.Len() != helloLen {
				t.Fatalf("writeHello(%d): %d bytes, %v", from, b.Len(), err)
			}
			if got, err := readHello(&b, s.self, make([]bool, len(s.seen))); err != nil || got != from {
				t.Errorf("writeHello(%d) read back as %d, %v", from, got, err)
			}
		}
		for _, short := range [][]byte{nil, {0}} {
			if _, err := readHello(bytes.NewReader(short), s.self, s.seen); err == nil {
				t.Errorf("self %d: %d-byte hello accepted", s.self, len(short))
			}
		}
	}
}
