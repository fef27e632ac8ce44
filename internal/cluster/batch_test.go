package cluster

import (
	"bytes"
	"testing"
)

// drainBatches empties the free list, so a test sees only what it releases.
func drainBatches() {
	for {
		select {
		case <-freeBatches:
		default:
			return
		}
	}
}

// TestReleaseIgnoresOtherCaps: only a buffer of capacity BatchCap reaches the
// free list — not a batch that outgrew it, not any other payload — and a
// released batch comes back empty from the next NewBatch.
func TestReleaseIgnoresOtherCaps(t *testing.T) {
	drainBatches()
	grown := append(NewBatch(), make([]byte, BatchCap+1)...)
	for _, p := range [][]byte{nil, make([]byte, 0, BatchCap-1), make([]byte, BatchCap+1), grown} {
		Release(p)
	}
	if n := len(freeBatches); n != 0 {
		t.Fatalf("free list holds %d buffers after releasing only non-batches", n)
	}
	b := append(NewBatch(), "unit"...)
	Release(b[:2])
	got := NewBatch()
	if len(got) != 0 || cap(got) != BatchCap || &got[:1][0] != &b[0] {
		t.Fatalf("NewBatch after Release: len %d cap %d, same buffer %v", len(got), cap(got), &got[:1][0] == &b[0])
	}
}

// TestFrameBatchPayloadRecycled: a payload of up to BatchCap bytes is read
// into a NewBatch buffer, so once the previous one is released a frame
// allocates no payload — only the header the io.Reader interface makes
// escape.
func TestFrameBatchPayloadRecycled(t *testing.T) {
	for _, n := range []int{1, 100, BatchCap} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		in := frame(1, 3, payload)
		r := bytes.NewReader(in)
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(in)
			m, err := readFrame(r, 1)
			if err != nil || !bytes.Equal(m.Payload, payload) || cap(m.Payload) != BatchCap {
				t.Fatalf("read %d bytes: got %d (cap %d), %v", n, len(m.Payload), cap(m.Payload), err)
			}
			Release(m.Payload)
		})
		if allocs > 1 {
			t.Errorf("%v allocations per %d-byte frame read after a Release, want only the header", allocs, n)
		}
	}
}

// TestTCPSendKeepsNonBatchPayload guards the ownership rule for a broadcast:
// one payload that is not a batch goes to two peers and is read by its
// sender afterwards, while batches sent behind it are released by Send and
// rewritten by the next NewBatch. Every copy must stay intact.
func TestTCPSendKeepsNonBatchPayload(t *testing.T) {
	f, err := NewTCPFabric(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte("bcast"), 600)
	want := bytes.Clone(payload)
	for p := 1; p <= 2; p++ {
		if err := f.Endpoint(0).Send(p, 7, payload); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 32
	for i := 0; i < batches; i++ {
		b := append(NewBatch(), bytes.Repeat([]byte{byte(i)}, BatchCap)...)
		if err := f.Endpoint(0).Send(1+i%2, 8, b); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("the sender's payload changed after it was sent")
	}
	for p := 1; p <= 2; p++ {
		if m := <-f.Endpoint(p).Inbox(); m.Kind != 7 || !bytes.Equal(m.Payload, want) {
			t.Errorf("node %d got kind %d, %d bytes, want the broadcast intact", p, m.Kind, len(m.Payload))
		}
		for i := p - 1; i < batches; i += 2 {
			m := <-f.Endpoint(p).Inbox()
			if m.Kind != 8 || !bytes.Equal(m.Payload, bytes.Repeat([]byte{byte(i)}, BatchCap)) {
				t.Errorf("node %d batch %d: kind %d, %d bytes, not the bytes sent", p, i, m.Kind, len(m.Payload))
			}
			Release(m.Payload)
		}
	}
}
