// Package cluster provides the shared-nothing substrate the parallel miners
// run on: N nodes with private state exchanging messages over a Fabric. It
// emulates the paper's 16-node IBM SP-2 — each node is a goroutine with its
// own memory and simulated local disk — with two interconnects standing in
// for the High-Performance Switch:
//
//   - ChanFabric: in-process buffered channels (fast, deterministic), and
//   - TCPFabric: loopback TCP with length-prefixed frames, paying real
//     serialization and kernel socket costs.
//
// Every byte that crosses the fabric is accounted per node, which is how the
// repo reproduces the paper's communication-volume results (Table 6). A node
// sends only to its peers: a send to itself is an error on every fabric, so
// local work never counts as communication.
package cluster

import (
	"fmt"
	"sync/atomic"
)

// Message is one unit of inter-node communication. Kind is an
// application-defined tag; Payload is opaque to the fabric.
type Message struct {
	From    int
	Kind    uint8
	Payload []byte
}

// Endpoint is one node's attachment to the fabric. A node sends from its own
// goroutine and drains Inbox from at most one receiver goroutine.
type Endpoint interface {
	// ID returns this node's index in [0, N).
	ID() int
	// N returns the cluster size.
	N() int
	// Send delivers a message to node `to`, which must be a peer: sending to
	// yourself is an error, since local work must not count as
	// communication.
	//
	// Ownership: a NewBatch buffer passed to Send belongs to the fabric from
	// then on; the sender must not touch it again. A fabric that copies the
	// bytes out (to a TCP peer) releases it once they are written; one that
	// delivers by reference (ChanFabric) hands it to the receiver. Any other
	// payload stays the sender's and is never released, so one slice may go
	// to every peer and be read afterwards. The receiver
	// owns every payload it gets (TCP reads one of up to BatchCap bytes into
	// a NewBatch buffer) and may Release one it does not keep.
	Send(to int, kind uint8, payload []byte) error
	// Inbox returns the stream of incoming messages. It is closed when the
	// fabric shuts down.
	Inbox() <-chan Message
	// Stats returns a snapshot of this endpoint's traffic counters. Counters
	// are monotonic for the lifetime of the endpoint; callers that need
	// per-window accounting snapshot and subtract (Traffic.Sub).
	Stats() Traffic
	// KindStats returns per-message-kind traffic counters, indexed by kind.
	// The slice covers every kind seen so far (len = max kind + 1); entries
	// for unseen kinds are zero.
	KindStats() []Traffic
	// Err reports why the endpoint is unusable, or nil while it is healthy.
	// A peer dropping mid-run (TCP fabric) surfaces here after the inbox
	// closes.
	Err() error
}

// errSelfSend is every fabric's answer to a node sending to itself.
func errSelfSend(id int) error {
	return fmt.Errorf("cluster: node %d cannot send to itself", id)
}

// Fabric is a cluster interconnect: N endpoints plus lifecycle.
type Fabric interface {
	// N returns the cluster size.
	N() int
	// Endpoint returns node i's attachment.
	Endpoint(i int) Endpoint
	// Close shuts the fabric down, closing all inboxes. Safe to call twice.
	Close() error
}

// Traffic is the fabric's accounting record: messages and payload bytes,
// sent and received — of one endpoint, of one message kind on it, or of a
// window between two snapshots of either. It is declared here and nowhere
// else; metrics embeds it wherever a report carries the four figures. Bytes
// count payload sizes; the fixed per-message envelope is excluded so both
// fabrics report identical volumes.
type Traffic struct {
	MsgsSent      int64 `json:"msgs_sent"`
	MsgsReceived  int64 `json:"msgs_received"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// Add returns the element-wise sum of two records.
func (t Traffic) Add(o Traffic) Traffic {
	return Traffic{
		MsgsSent:      t.MsgsSent + o.MsgsSent,
		MsgsReceived:  t.MsgsReceived + o.MsgsReceived,
		BytesSent:     t.BytesSent + o.BytesSent,
		BytesReceived: t.BytesReceived + o.BytesReceived,
	}
}

// Sub returns the element-wise difference t − o. With monotonic endpoint
// counters this is how per-pass windows are computed: snapshot at the window
// start, subtract from the snapshot at its end.
func (t Traffic) Sub(o Traffic) Traffic {
	return Traffic{
		MsgsSent:      t.MsgsSent - o.MsgsSent,
		MsgsReceived:  t.MsgsReceived - o.MsgsReceived,
		BytesSent:     t.BytesSent - o.BytesSent,
		BytesReceived: t.BytesReceived - o.BytesReceived,
	}
}

// tally is the atomic form of Traffic. Counters only ever increase;
// per-pass attribution is done by snapshot deltas, never by resetting.
type tally struct {
	msgsSent, msgsReceived   atomic.Int64
	bytesSent, bytesReceived atomic.Int64
}

func (t *tally) sent(n int) {
	t.msgsSent.Add(1)
	t.bytesSent.Add(int64(n))
}

func (t *tally) received(n int) {
	t.msgsReceived.Add(1)
	t.bytesReceived.Add(int64(n))
}

func (t *tally) load() Traffic {
	return Traffic{
		MsgsSent:      t.msgsSent.Load(),
		MsgsReceived:  t.msgsReceived.Load(),
		BytesSent:     t.bytesSent.Load(),
		BytesReceived: t.bytesReceived.Load(),
	}
}

// counters is one endpoint's accounting: the total and a parallel per-kind
// breakdown, both the same tally.
type counters struct {
	total tally
	kinds [256]tally // indexed by Message.Kind
}

func (c *counters) onSend(kind uint8, n int) {
	c.total.sent(n)
	c.kinds[kind].sent(n)
}

func (c *counters) onRecv(kind uint8, n int) {
	c.total.received(n)
	c.kinds[kind].received(n)
}

// Stats and KindStats implement the Endpoint snapshot methods for both
// endpoint types, which embed counters.
func (c *counters) Stats() Traffic { return c.total.load() }

// KindStats covers kinds 0 through the highest one that has carried traffic.
func (c *counters) KindStats() []Traffic {
	lim := len(c.kinds)
	for lim > 0 && c.kinds[lim-1].load() == (Traffic{}) {
		lim--
	}
	if lim == 0 {
		return nil
	}
	out := make([]Traffic, lim)
	for k := range out {
		out[k] = c.kinds[k].load()
	}
	return out
}
