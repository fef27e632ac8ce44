package cluster

import (
	"net"
	"sync"
	"testing"
	"time"
)

// startMesh brings up an n-node mesh with dynamically allocated ports. It
// returns the endpoints, each node's closer, and a cleanup closing them all.
func startMesh(t *testing.T, n int) ([]Endpoint, []func() error, func()) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]Endpoint, n)
	closers := make([]func() error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, closer, err := DialMesh(i, addrs, MeshOptions{Listener: listeners[i], DialTimeout: 5 * time.Second})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			eps[i] = ep
			closers[i] = closer.Close
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return eps, closers, func() {
		for _, c := range closers {
			if c != nil {
				c()
			}
		}
	}
}

func TestMeshDelivery(t *testing.T) {
	eps, _, cleanup := startMesh(t, 4)
	defer cleanup()
	for i, ep := range eps {
		if ep.ID() != i || ep.N() != 4 {
			t.Fatalf("endpoint %d identity wrong", i)
		}
	}
	// Ring exchange.
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			next := (i + 1) % 4
			if err := ep.Send(next, 3, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			m := <-ep.Inbox()
			want := (i + 3) % 4
			if m.From != want || int(m.Payload[0]) != want {
				t.Errorf("node %d got %+v, want from %d", i, m, want)
			}
		}(i, ep)
	}
	wg.Wait()
	// Accounting.
	s := eps[0].Stats()
	if s.MsgsSent != 1 || s.MsgsReceived != 1 || s.BytesSent != 1 {
		t.Errorf("stats = %v", s)
	}
}

func TestMeshSelfSend(t *testing.T) {
	eps, _, cleanup := startMesh(t, 2)
	defer cleanup()
	if err := eps[1].Send(1, 9, []byte("self")); err != nil {
		t.Fatal(err)
	}
	m := <-eps[1].Inbox()
	if m.From != 1 || string(m.Payload) != "self" {
		t.Errorf("self-send got %+v", m)
	}
}

// TestMeshPeerDropSurfacesError kills one node of a live mesh and asserts the
// survivors notice: their inboxes close (instead of blocking forever) and
// Err() carries the lost-peer cause.
func TestMeshPeerDropSurfacesError(t *testing.T) {
	eps, closers, cleanup := startMesh(t, 3)
	defer cleanup()
	// Node 2 vanishes mid-run, as if its process died.
	if err := closers[2](); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		select {
		case _, ok := <-eps[i].Inbox():
			if ok {
				t.Fatalf("node %d: unexpected message after peer drop", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d: inbox did not close after peer drop", i)
		}
		if eps[i].Err() == nil {
			t.Errorf("node %d: Err() = nil after peer drop", i)
		}
	}
	// The departed node closed cleanly on purpose: no failure recorded.
	if err := eps[2].Err(); err != nil {
		t.Errorf("node 2: clean close recorded error: %v", err)
	}
}

func TestMeshValidation(t *testing.T) {
	if _, _, err := DialMesh(5, []string{"a", "b"}, MeshOptions{}); err == nil {
		t.Error("out-of-range self must fail")
	}
	// Dial timeout against a dead peer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	_, _, err = DialMesh(0, []string{ln.Addr().String(), deadAddr}, MeshOptions{
		Listener:    ln,
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Error("dial to dead peer must time out")
	}
}

func TestMeshCloseIdempotent(t *testing.T) {
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	var closerA func() error
	var epA Endpoint
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep, c, err := DialMesh(0, addrs, MeshOptions{Listener: listeners[0]})
		if err != nil {
			t.Error(err)
			return
		}
		epA, closerA = ep, c.Close
	}()
	ep, c, err := DialMesh(1, addrs, MeshOptions{Listener: listeners[1]})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if closerA == nil {
		t.Fatal("node 0 failed")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
	closerA()
	if _, ok := <-ep.Inbox(); ok {
		t.Error("inbox should be closed")
	}
	_ = epA
}
