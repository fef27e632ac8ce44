package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// TCPFabric connects N nodes over loopback TCP, one full-duplex connection
// per unordered node pair, with length-prefixed frames (see frame.go).
// Unlike ChanFabric, payloads are really copied through the kernel, so this
// fabric charges genuine serialization and transport cost — the closest
// one-box stand-in for the SP-2's High-Performance Switch.
type TCPFabric struct {
	endpoints []*tcpEndpoint
	closeOnce sync.Once
}

// NewTCPFabric builds an n-node loopback TCP mesh: n pre-bound loopback
// listeners and one in-process DialMesh endpoint per node, so the fabric and
// the multi-process mesh share one handshake. inboxBuffer sizes each node's
// delivery channel (default 1024 when non-positive).
func NewTCPFabric(n, inboxBuffer int) (*TCPFabric, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, p := range listeners[:i] {
				p.Close()
			}
			return nil, fmt.Errorf("cluster: listen for node %d: %w", i, err)
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	f := &TCPFabric{endpoints: make([]*tcpEndpoint, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range listeners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, m, err := DialMesh(i, addrs, MeshOptions{Listener: listeners[i], InboxBuffer: inboxBuffer})
			if err != nil {
				errs[i] = err
				// Release the peers still accepting from this node. (DialMesh
				// closes its own listener on every path.)
				for _, l := range listeners {
					l.Close()
				}
				return
			}
			f.endpoints[i] = m.ep
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ep := range f.endpoints {
				if ep != nil {
					ep.shutdown(nil)
				}
			}
			return nil, err
		}
	}
	return f, nil
}

// N returns the cluster size.
func (f *TCPFabric) N() int { return len(f.endpoints) }

// Endpoint returns node i's attachment.
func (f *TCPFabric) Endpoint(i int) Endpoint { return f.endpoints[i] }

// Close tears down every connection and closes all inboxes. Every endpoint
// is marked closing first so its readers treat the dropped connections as a
// clean shutdown, not a peer failure.
func (f *TCPFabric) Close() error {
	f.closeOnce.Do(func() {
		for _, ep := range f.endpoints {
			ep.markClosed()
		}
		for _, ep := range f.endpoints {
			ep.shutdown(nil)
		}
	})
	return nil
}

// tcpConn is one side of a pairwise connection with a serialized writer.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
}

func (tc *tcpConn) close() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.w.Flush()
	return tc.c.Close()
}

type tcpEndpoint struct {
	id      int
	n       int
	inbox   chan Message
	conns   []*tcpConn
	connsMu sync.Mutex
	counters
	readers sync.WaitGroup
	closed  chan struct{}

	closingOnce  sync.Once // closes e.closed: "stop treating read errors as failures"
	shutdownOnce sync.Once // full teardown: close conns, drain readers, close inbox
	failMu       sync.Mutex
	failErr      error

	quiesceMu sync.Mutex
	quiesced  []bool // per-peer: an EOF from this peer is orderly shutdown

	// phaseFn, when installed (driver.SetPhase), describes the protocol
	// position this endpoint's owner is in ("pass 3/execute"); peer-loss
	// errors include it so an abort names the pass and phase the run died in.
	phaseMu sync.Mutex
	phaseFn func() string
}

// QuiescePeer marks one peer's departure as part of the protocol's orderly
// shutdown: a subsequent read error on that connection no longer fails the
// endpoint. The run-end telemetry barrier uses this — finished peers close
// at their own pace, and a node still waiting for its own acknowledgement
// must not mistake a fellow follower's clean exit for a peer failure.
func (e *tcpEndpoint) QuiescePeer(peer int) {
	if peer < 0 || peer >= e.n {
		return
	}
	e.quiesceMu.Lock()
	if e.quiesced == nil {
		e.quiesced = make([]bool, e.n)
	}
	e.quiesced[peer] = true
	e.quiesceMu.Unlock()
}

func (e *tcpEndpoint) peerQuiesced(peer int) bool {
	e.quiesceMu.Lock()
	defer e.quiesceMu.Unlock()
	return e.quiesced != nil && peer >= 0 && peer < len(e.quiesced) && e.quiesced[peer]
}

// markClosed flags the endpoint as intentionally closing, so subsequent read
// errors are not recorded as peer failures.
func (e *tcpEndpoint) markClosed() {
	e.closingOnce.Do(func() { close(e.closed) })
}

// shutdown tears the endpoint down: closes every connection, waits for the
// readers to drain, then closes the inbox so a blocked receiver wakes up. A
// non-nil cause (a peer dropping mid-run) is recorded and surfaced by Err.
// Safe to call from any goroutine except a reader (it waits on readers).
func (e *tcpEndpoint) shutdown(cause error) {
	if cause != nil {
		e.failMu.Lock()
		if e.failErr == nil {
			e.failErr = cause
		}
		e.failMu.Unlock()
	}
	e.markClosed()
	e.shutdownOnce.Do(func() {
		e.connsMu.Lock()
		conns := append([]*tcpConn(nil), e.conns...)
		e.connsMu.Unlock()
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
		e.readers.Wait()
		close(e.inbox)
	})
}

// closing reports whether the endpoint has been marked closed.
func (e *tcpEndpoint) closing() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

func (e *tcpEndpoint) setConn(peer int, c net.Conn) {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	e.conns[peer] = &tcpConn{c: c, w: bufio.NewWriterSize(c, 64<<10)}
}

func (e *tcpEndpoint) ID() int { return e.id }

func (e *tcpEndpoint) N() int { return e.n }

func (e *tcpEndpoint) Send(to int, kind uint8, payload []byte) error {
	if to == e.id {
		return errSelfSend(e.id)
	}
	if to < 0 || to >= e.n || e.conns[to] == nil {
		return fmt.Errorf("cluster: node %d has no connection to %d", e.id, to)
	}
	tc := e.conns[to]
	tc.mu.Lock()
	defer tc.mu.Unlock()
	defer Release(payload) // a batch's bytes are copied out by then
	if err := writeFrame(tc.w, e.id, kind, payload); err != nil {
		return fmt.Errorf("cluster: send %d->%d: %w", e.id, to, err)
	}
	// Flush eagerly: the mining protocol interleaves small control messages
	// with data and has no other flush point.
	if err := tc.w.Flush(); err != nil {
		return fmt.Errorf("cluster: flush %d->%d: %w", e.id, to, err)
	}
	e.onSend(kind, len(payload))
	return nil
}

func (e *tcpEndpoint) readLoop(peer int, tc *tcpConn) {
	defer e.readers.Done()
	r := bufio.NewReaderSize(tc.c, 64<<10)
	for {
		m, err := readFrame(r, peer)
		if err != nil {
			e.onReadError(peer, err)
			return
		}
		e.onRecv(m.Kind, len(m.Payload))
		select {
		case e.inbox <- m:
		case <-e.closed:
			return
		}
	}
}

// onReadError distinguishes a clean shutdown (the endpoint was marked closed
// before the connection dropped, or the peer was quiesced) from a peer
// failing mid-run. On failure the teardown runs on a fresh goroutine:
// shutdown waits for all readers, and this reader has not returned yet.
func (e *tcpEndpoint) onReadError(peer int, err error) {
	if e.closing() || e.peerQuiesced(peer) {
		return
	}
	if ph := e.phase(); ph != "" {
		go e.shutdown(fmt.Errorf("cluster: node %d lost peer %d during %s: %w", e.id, peer, ph, err))
		return
	}
	go e.shutdown(fmt.Errorf("cluster: node %d lost peer %d: %w", e.id, peer, err))
}

// SetPhase installs a callback describing the protocol position the
// endpoint's owner is in, woven into peer-loss errors. fn must be safe to
// call from any goroutine.
func (e *tcpEndpoint) SetPhase(fn func() string) {
	e.phaseMu.Lock()
	e.phaseFn = fn
	e.phaseMu.Unlock()
}

func (e *tcpEndpoint) phase() string {
	e.phaseMu.Lock()
	fn := e.phaseFn
	e.phaseMu.Unlock()
	if fn == nil {
		return ""
	}
	return fn()
}

func (e *tcpEndpoint) Inbox() <-chan Message { return e.inbox }

// Err reports the failure that shut this endpoint down, or nil after a clean
// run. Callers check it once the inbox closes to tell peer loss from Close.
func (e *tcpEndpoint) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}
