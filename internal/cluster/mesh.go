package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// MeshOptions configure DialMesh.
type MeshOptions struct {
	// Listener, when non-nil, is the pre-bound listener for this node's
	// address (useful when ports are allocated dynamically); otherwise
	// DialMesh listens on addrs[self].
	Listener net.Listener
	// InboxBuffer sizes the delivery channel (default 1024).
	InboxBuffer int
	// DialTimeout bounds the handshake (default 30s): how long to keep
	// retrying peers that have not started yet, to wait for every
	// lower-numbered peer to connect, and for each connection's hello.
	DialTimeout time.Duration
}

// Mesh is the handle DialMesh returns alongside the Endpoint: it tears the
// mesh down.
type Mesh struct {
	ep *tcpEndpoint
}

// Close shuts the endpoint down cleanly: connections are closed, reader
// goroutines drained, and the inbox closed. A shutdown already triggered by
// a peer drop (see Endpoint.Err) makes this a no-op.
func (m *Mesh) Close() error {
	m.ep.markClosed()
	m.ep.shutdown(nil)
	return nil
}

// DialMesh joins this process into a cross-process shared-nothing mesh: one
// node per process, full TCP mesh between them — the deployment shape of the
// paper's SP-2, with OS processes standing in for nodes. addrs lists every
// node's listen address in node-id order; self is this process's id.
//
// Connection protocol (the in-process TCPFabric is n of these): node i dials
// every j > i with a hello carrying its id (frame.go), and accepts connections
// from every j < i. Dials retry until the peer's listener is up, so workers
// may start in any order. The whole handshake ends within DialTimeout: a peer
// that never connects or never says hello fails it, as does a hello naming a
// node that is not a lower-numbered peer or is already connected.
func DialMesh(self int, addrs []string, opts MeshOptions) (Endpoint, *Mesh, error) {
	n := len(addrs)
	if self < 0 || self >= n {
		return nil, nil, fmt.Errorf("cluster: self %d out of range of %d addrs", self, n)
	}
	if opts.InboxBuffer <= 0 {
		opts.InboxBuffer = 1024
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 30 * time.Second
	}
	handshake := time.Now().Add(opts.DialTimeout)
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addrs[self])
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: listen %s: %w", addrs[self], err)
		}
	}
	ep := &tcpEndpoint{
		id:     self,
		n:      n,
		inbox:  make(chan Message, opts.InboxBuffer),
		conns:  make([]*tcpConn, n),
		closed: make(chan struct{}),
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	// Accept from every lower-numbered node. A listener without deadlines
	// (none in the repo) leaves Accept unbounded.
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(handshake)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make([]bool, n)
		for k := 0; k < self; k++ {
			c, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("cluster: node %d accepted %d of %d lower-numbered peers: %w", self, k, self, err)
				return
			}
			c.SetReadDeadline(handshake)
			from, err := readHello(c, self, seen)
			if err == nil {
				err = c.SetReadDeadline(time.Time{})
			}
			if err != nil {
				c.Close()
				errs <- err
				return
			}
			seen[from] = true
			ep.setConn(from, c)
		}
	}()
	// Dial every higher-numbered node, retrying while it boots.
	for j := self + 1; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for {
				c, err := net.DialTimeout("tcp", addrs[j], time.Second)
				if err != nil {
					if time.Now().After(handshake) {
						errs <- fmt.Errorf("cluster: dial %d->%d (%s): %w", self, j, addrs[j], err)
						return
					}
					time.Sleep(100 * time.Millisecond)
					continue
				}
				if err := writeHello(c, self); err != nil {
					c.Close()
					errs <- fmt.Errorf("cluster: hello %d->%d: %w", self, j, err)
					return
				}
				ep.setConn(j, c)
				return
			}
		}(j)
	}
	wg.Wait()
	ln.Close()
	close(errs)
	if err := <-errs; err != nil {
		return nil, nil, teardown(ep, err)
	}

	for peer, tc := range ep.conns {
		if tc != nil {
			ep.readers.Add(1)
			go ep.readLoop(peer, tc)
		}
	}
	return ep, &Mesh{ep: ep}, nil
}

// teardown closes every live connection after a handshake failure.
func teardown(ep *tcpEndpoint, err error) error {
	for _, tc := range ep.conns {
		if tc != nil {
			tc.close()
		}
	}
	return err
}
