package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fabrics under test share one behavioural suite.
func fabrics(t *testing.T, n int) map[string]Fabric {
	t.Helper()
	tcp, err := NewTCPFabric(n, 64)
	if err != nil {
		t.Fatalf("tcp fabric: %v", err)
	}
	return map[string]Fabric{
		"chan": NewChanFabric(n, 64),
		"tcp":  tcp,
	}
}

func TestPointToPointDelivery(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			if f.N() != 3 {
				t.Fatalf("N = %d", f.N())
			}
			payload := []byte("hello")
			if err := f.Endpoint(0).Send(2, 7, payload); err != nil {
				t.Fatal(err)
			}
			m := <-f.Endpoint(2).Inbox()
			if m.From != 0 || m.Kind != 7 || string(m.Payload) != "hello" {
				t.Errorf("got %+v", m)
			}
		})
	}
}

func TestPerSenderFIFO(t *testing.T) {
	const msgs = 200
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			go func() {
				for i := 0; i < msgs; i++ {
					f.Endpoint(0).Send(1, 1, []byte{byte(i)})
				}
			}()
			for i := 0; i < msgs; i++ {
				m := <-f.Endpoint(1).Inbox()
				if m.Payload[0] != byte(i) {
					t.Fatalf("message %d arrived out of order: %d", i, m.Payload[0])
				}
			}
		})
	}
}

func TestAllToAllNoDeadlock(t *testing.T) {
	const n, msgs = 4, 500
	for name, f := range fabrics(t, n) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				ep := f.Endpoint(i)
				wg.Add(2)
				// Receiver drains concurrently with the sender — the same
				// topology the count-support phase uses.
				go func() {
					defer wg.Done()
					for got := 0; got < msgs*(n-1); got++ {
						<-ep.Inbox()
					}
				}()
				go func(id int) {
					defer wg.Done()
					payload := make([]byte, 64)
					for m := 0; m < msgs; m++ {
						for p := 0; p < n; p++ {
							if p == id {
								continue
							}
							if err := ep.Send(p, 1, payload); err != nil {
								t.Errorf("send: %v", err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestAccountingSymmetry(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			sizes := []int{0, 1, 100, 4096}
			for i, sz := range sizes {
				if err := f.Endpoint(0).Send(1, uint8(i), make([]byte, sz)); err != nil {
					t.Fatal(err)
				}
			}
			for range sizes {
				<-f.Endpoint(1).Inbox()
			}
			s0, s1 := f.Endpoint(0).Stats(), f.Endpoint(1).Stats()
			var want int64
			for _, sz := range sizes {
				want += int64(sz)
			}
			if s0.BytesSent != want || s0.MsgsSent != int64(len(sizes)) {
				t.Errorf("sender stats %v", s0)
			}
			if s1.BytesReceived != want || s1.MsgsReceived != int64(len(sizes)) {
				t.Errorf("receiver stats %v", s1)
			}
			if s0.BytesReceived != 0 || s1.BytesSent != 0 {
				t.Errorf("phantom traffic: %v / %v", s0, s1)
			}
			// Counters are monotonic: per-window accounting subtracts
			// snapshots instead of resetting.
			before := f.Endpoint(0).Stats()
			if err := f.Endpoint(0).Send(1, 0, make([]byte, 10)); err != nil {
				t.Fatal(err)
			}
			<-f.Endpoint(1).Inbox()
			delta := f.Endpoint(0).Stats().Sub(before)
			if delta.BytesSent != 10 || delta.MsgsSent != 1 {
				t.Errorf("snapshot delta = %+v", delta)
			}
		})
	}
}

// TestKindStatsReconcile asserts the per-kind breakdown sums exactly to the
// endpoint totals on both fabrics, for sends and receives alike.
func TestKindStatsReconcile(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			type tx struct {
				from, to int
				kind     uint8
				size     int
			}
			txs := []tx{
				{0, 1, 1, 64}, {0, 1, 3, 100}, {0, 2, 3, 9},
				{1, 0, 7, 0}, {1, 2, 1, 2048}, {2, 0, 5, 1},
				{2, 1, 3, 33},
			}
			recvCount := make(map[int]int)
			for _, x := range txs {
				if err := f.Endpoint(x.from).Send(x.to, x.kind, make([]byte, x.size)); err != nil {
					t.Fatal(err)
				}
				recvCount[x.to]++
			}
			for node, c := range recvCount {
				for i := 0; i < c; i++ {
					<-f.Endpoint(node).Inbox()
				}
			}
			for i := 0; i < f.N(); i++ {
				ep := f.Endpoint(i)
				total := ep.Stats()
				byKind := ep.KindStats()
				var got Traffic
				for _, k := range byKind {
					got = got.Add(k)
				}
				if got != total {
					t.Errorf("node %d: kind sum %+v != totals %+v", i, got, total)
				}
			}
			// Spot-check one attribution: node 0 sent kinds 1 and 3.
			ks := f.Endpoint(0).KindStats()
			if len(ks) < 4 || ks[1].BytesSent != 64 || ks[3].BytesSent != 109 {
				t.Errorf("node 0 kind stats = %+v", ks)
			}
			if err := f.Endpoint(0).Err(); err != nil {
				t.Errorf("healthy endpoint reports error: %v", err)
			}
		})
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Traffic{MsgsSent: 1, MsgsReceived: 2, BytesSent: 3, BytesReceived: 4}
	b := a.Add(a)
	if b.MsgsSent != 2 || b.BytesReceived != 8 {
		t.Errorf("Add = %+v", b)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			if err := f.Endpoint(0).Send(5, 1, nil); err == nil {
				t.Error("send to node 5 of 2 should fail")
			}
			if err := f.Endpoint(0).Send(-1, 1, nil); err == nil {
				t.Error("send to node -1 should fail")
			}
		})
	}
}

func TestCloseIsIdempotentAndClosesInboxes(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			if err := f.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			if _, ok := <-f.Endpoint(0).Inbox(); ok {
				t.Error("inbox should be closed")
			}
		})
	}
}

// checkSelfSendRefused is the self-send check every fabric shares: node 1
// sending to itself gets an error naming it, nothing is delivered and its
// traffic counters do not move, while the same endpoint still reaches node 0.
func checkSelfSendRefused(t *testing.T, eps []Endpoint) {
	t.Helper()
	ep := eps[1]
	stats, kinds := ep.Stats(), ep.KindStats()
	err := ep.Send(1, 9, []byte("self"))
	if err == nil || !strings.Contains(err.Error(), "node 1 ") {
		t.Fatalf("self-send: got %v, want an error naming node 1", err)
	}
	if got := ep.Stats(); got != stats {
		t.Errorf("Stats moved: %v -> %v", stats, got)
	}
	if got := ep.KindStats(); !slices.Equal(got, kinds) {
		t.Errorf("KindStats moved: %v -> %v", kinds, got)
	}
	select {
	case m := <-ep.Inbox():
		t.Errorf("self-send delivered %+v", m)
	default:
	}
	if err := ep.Send(0, 9, []byte("peer")); err != nil {
		t.Fatal(err)
	}
	if m := <-eps[0].Inbox(); m.From != 1 || string(m.Payload) != "peer" {
		t.Errorf("peer got %+v", m)
	}
}

func TestChanSelfSend(t *testing.T) {
	f := NewChanFabric(2, 4)
	defer f.Close()
	checkSelfSendRefused(t, []Endpoint{f.Endpoint(0), f.Endpoint(1)})
}

// TestTCPSelfSendLoopsBack keeps its name from when a TCP self-send was
// looped back in-process; it is now refused like on every other fabric.
func TestTCPSelfSendLoopsBack(t *testing.T) {
	f, err := NewTCPFabric(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checkSelfSendRefused(t, []Endpoint{f.Endpoint(0), f.Endpoint(1)})
}

func TestEndpointIdentity(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			for i := 0; i < 3; i++ {
				ep := f.Endpoint(i)
				if ep.ID() != i || ep.N() != 3 {
					t.Errorf("endpoint %d identity: id=%d n=%d", i, ep.ID(), ep.N())
				}
			}
		})
	}
}

func TestLargePayloadOverTCP(t *testing.T) {
	f, err := NewTCPFabric(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() { f.Endpoint(0).Send(1, 1, payload) }()
	m := <-f.Endpoint(1).Inbox()
	if len(m.Payload) != len(payload) {
		t.Fatalf("len = %d", len(m.Payload))
	}
	for i := 0; i < len(payload); i += 4099 {
		if m.Payload[i] != byte(i) {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestManyNodesMesh(t *testing.T) {
	// Mesh setup for 16 nodes: the paper's cluster size.
	f, err := NewTCPFabric(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := f.Endpoint(i)
			next := (i + 1) % 16
			if err := ep.Send(next, 1, []byte(fmt.Sprint(i))); err != nil {
				t.Errorf("send: %v", err)
			}
			m := <-ep.Inbox()
			prev := (i + 15) % 16
			if m.From != prev {
				t.Errorf("node %d got message from %d, want %d", i, m.From, prev)
			}
		}(i)
	}
	wg.Wait()
}

// TestChanSendBlockedAtClose: closing the fabric while senders are blocked on
// a full inbox ends those sends with an error. They used to panic on the
// closed channel.
func TestChanSendBlockedAtClose(t *testing.T) {
	f := NewChanFabric(2, 1)
	if err := f.Endpoint(0).Send(1, 3, nil); err != nil { // fills node 1's inbox
		t.Fatal(err)
	}
	const senders = 4
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func() { errs <- f.Endpoint(0).Send(1, 3, nil) }()
	}
	// Whether a sender is already blocked or only arrives after the close,
	// its send must fail: nobody drains node 1.
	runtime.Gosched()
	f.Close()
	for i := 0; i < senders; i++ {
		if err := <-errs; err == nil {
			t.Error("send into a full, closed inbox succeeded")
		}
	}
}
