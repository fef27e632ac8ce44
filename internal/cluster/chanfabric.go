package cluster

import (
	"fmt"
	"sync"
)

// ChanFabric connects N nodes with in-process buffered channels. Payloads
// are delivered by reference (no copying), so it measures algorithmic
// communication volume without serialization overhead. Receive accounting
// happens at send time, just before delivery.
type ChanFabric struct {
	endpoints []*chanEndpoint
	closeOnce sync.Once
}

// NewChanFabric builds a channel fabric of n nodes. buffer is the per-inbox
// message capacity; non-positive values select a default that keeps
// pipelined count-support exchanges from stalling.
func NewChanFabric(n, buffer int) *ChanFabric {
	if buffer <= 0 {
		buffer = 1024
	}
	f := &ChanFabric{endpoints: make([]*chanEndpoint, n)}
	for i := 0; i < n; i++ {
		f.endpoints[i] = &chanEndpoint{
			id:     i,
			fabric: f,
			inbox:  make(chan Message, buffer),
		}
	}
	return f
}

// N returns the cluster size.
func (f *ChanFabric) N() int { return len(f.endpoints) }

// Endpoint returns node i's attachment.
func (f *ChanFabric) Endpoint(i int) Endpoint { return f.endpoints[i] }

// Close closes every inbox. Sends after Close return an error.
func (f *ChanFabric) Close() error {
	f.closeOnce.Do(func() {
		for _, ep := range f.endpoints {
			ep.mu.Lock()
			ep.closed = true
			close(ep.inbox)
			ep.mu.Unlock()
		}
	})
	return nil
}

type chanEndpoint struct {
	id     int
	fabric *ChanFabric
	inbox  chan Message
	stats  counters

	mu     sync.Mutex // guards closed vs. inflight sends into inbox
	closed bool
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) N() int { return len(e.fabric.endpoints) }

func (e *chanEndpoint) Send(to int, kind uint8, payload []byte) error {
	if to < 0 || to >= len(e.fabric.endpoints) {
		return fmt.Errorf("cluster: send to unknown node %d (cluster size %d)", to, e.N())
	}
	dst := e.fabric.endpoints[to]
	msg := Message{From: e.id, Kind: kind, Payload: payload}
	// Serialize against Close so we never send on a closed channel. The
	// blocking send happens outside the critical section only when the
	// inbox has room; holding the lock across a full inbox would deadlock
	// Close, so probe first and fall back to a locked blocking send with
	// the closed flag checked.
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("cluster: send to node %d after close", to)
	}
	// Account before delivery: the receiver may consume the message and
	// close its last accounting window before this goroutine runs again, and
	// a receive counted after that window breaks RunStats.ReconcileEndpoints.
	e.stats.onSend(kind, len(payload))
	dst.stats.onRecv(kind, len(payload))
	select {
	case dst.inbox <- msg:
		dst.mu.Unlock()
	default:
		dst.mu.Unlock()
		dst.inbox <- msg // inbox full: block without the lock
	}
	return nil
}

func (e *chanEndpoint) Inbox() <-chan Message { return e.inbox }

func (e *chanEndpoint) Stats() Stats { return e.stats.snapshot() }

func (e *chanEndpoint) KindStats() []KindStat { return e.stats.kindSnapshot() }

// Err is always nil: in-process channels cannot lose a peer.
func (e *chanEndpoint) Err() error { return nil }
