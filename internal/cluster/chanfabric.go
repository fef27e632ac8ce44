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
	closed    chan struct{} // closed by Close, before any inbox
	closeOnce sync.Once
}

// NewChanFabric builds a channel fabric of n nodes. buffer is the per-inbox
// message capacity; non-positive values select a default that keeps
// pipelined count-support exchanges from stalling.
func NewChanFabric(n, buffer int) *ChanFabric {
	if buffer <= 0 {
		buffer = 1024
	}
	f := &ChanFabric{endpoints: make([]*chanEndpoint, n), closed: make(chan struct{})}
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

// Close closes every inbox. Sends after Close return an error, and so does a
// send that was blocked on a full inbox when Close ran.
func (f *ChanFabric) Close() error {
	f.closeOnce.Do(func() {
		close(f.closed) // releases blocked senders, which hold their destination's mu shared
		for _, ep := range f.endpoints {
			ep.mu.Lock()
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
	counters

	// mu orders sends into inbox against its close: Send holds it shared
	// while it delivers, Close takes it exclusively after closing
	// fabric.closed, so no send ever meets a closed channel.
	mu sync.RWMutex
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) N() int { return len(e.fabric.endpoints) }

func (e *chanEndpoint) Send(to int, kind uint8, payload []byte) error {
	if to < 0 || to >= len(e.fabric.endpoints) {
		return fmt.Errorf("cluster: send to unknown node %d (cluster size %d)", to, e.N())
	}
	dst := e.fabric.endpoints[to]
	dst.mu.RLock()
	defer dst.mu.RUnlock()
	select {
	case <-e.fabric.closed:
		return fmt.Errorf("cluster: send to node %d after close", to)
	default:
	}
	// Account before delivery: the receiver may consume the message and
	// close its last accounting window before this goroutine runs again, and
	// a receive counted after that window breaks RunStats.ReconcileEndpoints.
	e.onSend(kind, len(payload))
	dst.onRecv(kind, len(payload))
	msg := Message{From: e.id, Kind: kind, Payload: payload}
	select {
	case dst.inbox <- msg:
		return nil
	default: // inbox full: wait for room, or for Close
	}
	select {
	case dst.inbox <- msg:
		return nil
	case <-e.fabric.closed:
		return fmt.Errorf("cluster: send to node %d interrupted by close", to)
	}
}

func (e *chanEndpoint) Inbox() <-chan Message { return e.inbox }

// Err is always nil: in-process channels cannot lose a peer.
func (e *chanEndpoint) Err() error { return nil }
