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
// repo reproduces the paper's communication-volume results (Table 6).
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
	// Send delivers a message to node `to`. Sending to yourself is allowed
	// (it loops back through the inbox) but the mining algorithms avoid it:
	// local work must not count as communication.
	Send(to int, kind uint8, payload []byte) error
	// Inbox returns the stream of incoming messages. It is closed when the
	// fabric shuts down.
	Inbox() <-chan Message
	// Stats returns a snapshot of this endpoint's traffic counters. Counters
	// are monotonic for the lifetime of the endpoint; callers that need
	// per-window accounting snapshot and subtract (Stats.Sub).
	Stats() Stats
	// KindStats returns per-message-kind traffic counters, indexed by kind.
	// The slice covers every kind seen so far (len = max kind + 1); entries
	// for unseen kinds are zero.
	KindStats() []KindStat
	// Err reports why the endpoint is unusable, or nil while it is healthy.
	// A peer dropping mid-run (TCP fabric) surfaces here after the inbox
	// closes.
	Err() error
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

// Stats are per-endpoint traffic counters. Bytes count payload sizes; the
// fixed per-message envelope is excluded so both fabrics report identical
// volumes.
type Stats struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
}

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MsgsSent:  s.MsgsSent + o.MsgsSent,
		MsgsRecv:  s.MsgsRecv + o.MsgsRecv,
		BytesSent: s.BytesSent + o.BytesSent,
		BytesRecv: s.BytesRecv + o.BytesRecv,
	}
}

// Sub returns the element-wise difference s − o. With monotonic endpoint
// counters this is how per-pass windows are computed: snapshot at the window
// start, subtract from the snapshot at its end.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		MsgsSent:  s.MsgsSent - o.MsgsSent,
		MsgsRecv:  s.MsgsRecv - o.MsgsRecv,
		BytesSent: s.BytesSent - o.BytesSent,
		BytesRecv: s.BytesRecv - o.BytesRecv,
	}
}

// KindStat is one message kind's traffic counters on one endpoint.
type KindStat struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
}

// Sub returns the element-wise difference k − o.
func (k KindStat) Sub(o KindStat) KindStat {
	return KindStat{
		MsgsSent:  k.MsgsSent - o.MsgsSent,
		MsgsRecv:  k.MsgsRecv - o.MsgsRecv,
		BytesSent: k.BytesSent - o.BytesSent,
		BytesRecv: k.BytesRecv - o.BytesRecv,
	}
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("sent %d msgs/%d B, recv %d msgs/%d B",
		s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
}

// counters is the shared atomic implementation of Stats, with a parallel
// per-kind breakdown. Counters only ever increase; per-pass attribution is
// done by snapshot deltas, never by resetting.
type counters struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
	kinds                [256]kindCounters // indexed by Message.Kind
	kindLim              atomic.Int64      // 1 + highest kind seen; 0 = none
}

type kindCounters struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
}

func (c *counters) noteKind(kind uint8) {
	lim := int64(kind) + 1
	for {
		cur := c.kindLim.Load()
		if cur >= lim || c.kindLim.CompareAndSwap(cur, lim) {
			return
		}
	}
}

func (c *counters) onSend(kind uint8, n int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(n))
	kc := &c.kinds[kind]
	kc.msgsSent.Add(1)
	kc.bytesSent.Add(int64(n))
	c.noteKind(kind)
}

func (c *counters) onRecv(kind uint8, n int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(n))
	kc := &c.kinds[kind]
	kc.msgsRecv.Add(1)
	kc.bytesRecv.Add(int64(n))
	c.noteKind(kind)
}

func (c *counters) snapshot() Stats {
	return Stats{
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

func (c *counters) kindSnapshot() []KindStat {
	lim := c.kindLim.Load()
	if lim == 0 {
		return nil
	}
	out := make([]KindStat, lim)
	for k := int64(0); k < lim; k++ {
		kc := &c.kinds[k]
		out[k] = KindStat{
			MsgsSent:  kc.msgsSent.Load(),
			MsgsRecv:  kc.msgsRecv.Load(),
			BytesSent: kc.bytesSent.Load(),
			BytesRecv: kc.bytesRecv.Load(),
		}
	}
	return out
}
