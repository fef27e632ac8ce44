package driver

import (
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// Exchange runs the count-support communication of one pass. The node's
// scan side — the node goroutine itself, or Spec.Workers sharded scan
// workers — reads the local partition and routes payload units (single
// k-itemsets for HPGM, per-transaction item groups for the H-HPGM family,
// encoded customer sequences for SPSPM/HPSPM) while a single receiver
// goroutine owns the node's partitioned candidate state and applies every
// batch — remote batches from the fabric inbox and local batches through an
// in-memory loopback queue. Splitting producer and consumer this way is
// what prevents the classic all-to-all deadlock of two nodes blocked
// sending into each other's full inboxes, and it means scan parallelism
// never contends on the candidate tables: workers batch into per-worker
// send buffers (one Batcher per worker) and all routed units funnel through
// this one consumer.
//
// Termination: after the scan workers have joined and every per-worker
// batch is flushed, the main goroutine sends KDone to every peer and closes
// the loopback; the receiver finishes once it has seen KDone from every
// peer and loopback close. Worker sends happen-before the KDone send (the
// pool joins first), so per-sender FIFO delivery still guarantees no data
// trails a peer's KDone.
type Exchange struct {
	n     *Node
	kind  uint8 // data-batch message kind (KData for count-support, KCondBase for pattern bases)
	apply func(batch []byte) (int64, error)
	selfq chan []byte
	done  chan error
	// dead is closed when the receiver returns, so a scan worker flushing
	// into a full loopback queue ends with an error when the receiver has
	// failed (a closed inbox, a bad batch) instead of blocking forever.
	dead  chan struct{}
	stash []cluster.Message // non-count-phase messages that arrived early
	// free recycles drained loopback batch buffers back to the batchers, so
	// steady-state local routing allocates no fresh batch buffers. Remote
	// buffers are never recycled: the fabric hands them to the peer by
	// reference.
	free chan []byte
	// itemsRecv/bytesRecv count items and payload bytes decoded from
	// *remote* batches (loopback units excluded) — the receiver-side half
	// of the paper's communication metrics. Counting at delivery rather
	// than from fabric counters keeps pass attribution exact even when a
	// peer's pass-end control messages arrive early.
	itemsRecv int64
	bytesRecv int64
}

// NewExchange launches the receiver goroutine for one exchange of this pass
// (through itemset.Go, so a panic in apply reaches Finish as an error).
// kind is the data-batch message kind: KData for the count-support phase;
// the FP-Growth engine routes conditional pattern bases as KCondBase so the
// per-kind byte accounting separates the two streams. Termination is KDone in
// either case. apply is invoked once per batch payload, from the receiver
// goroutine only — it has exclusive access to the candidate state it touches
// until Finish returns. It must decode the batch's concatenated units and
// return the number of items it decoded (the receive-side item accounting
// for remote batches); ItemsApplier adapts the common one-itemset-per-unit
// shape.
func (n *Node) NewExchange(kind uint8, apply func(batch []byte) (int64, error)) *Exchange {
	ex := &Exchange{
		n:     n,
		kind:  kind,
		apply: apply,
		selfq: make(chan []byte, 64),
		done:  make(chan error, 1),
		dead:  make(chan struct{}),
		free:  make(chan []byte, 64),
	}
	// Hand any already-stashed count-phase messages (a fast peer may have
	// started this pass before our previous barrier receive completed) to
	// the receiver.
	var pre []cluster.Message
	rest := n.pending[:0]
	for _, m := range n.pending {
		if m.Kind == kind || m.Kind == KDone {
			pre = append(pre, m)
		} else {
			rest = append(rest, m)
		}
	}
	n.pending = rest
	itemset.Go("recv", ex.done, func() error {
		defer close(ex.dead)
		sp := n.beginRecv()
		err := ex.loop(pre)
		sp.Arg("items", ex.itemsRecv)
		sp.Arg("bytes", ex.bytesRecv)
		sp.End()
		return err
	})
	return ex
}

// loop is the receiver body.
func (ex *Exchange) loop(pre []cluster.Message) error {
	peersLeft := ex.n.numPeers()
	for _, m := range pre {
		switch m.Kind {
		case ex.kind:
			if err := ex.applyBatch(m.Payload, true); err != nil {
				return err
			}
		case KDone:
			peersLeft--
		}
	}
	selfq := ex.selfq
	inbox := ex.n.ep.Inbox()
	for peersLeft > 0 || selfq != nil {
		select {
		case m, ok := <-inbox:
			if !ok {
				if cause := ex.n.ep.Err(); cause != nil {
					return fmt.Errorf("driver: node %d inbox closed mid count phase: %w", ex.n.id, cause)
				}
				return fmt.Errorf("driver: node %d inbox closed mid count phase", ex.n.id)
			}
			switch m.Kind {
			case ex.kind:
				if err := ex.applyBatch(m.Payload, true); err != nil {
					return err
				}
			case KDone:
				peersLeft--
			default:
				ex.stash = append(ex.stash, m)
			}
		case b, ok := <-selfq:
			if !ok {
				selfq = nil
				continue
			}
			if err := ex.applyBatch(b, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyBatch hands one batch to the miner's decoder and accounts for it.
func (ex *Exchange) applyBatch(b []byte, remote bool) error {
	items, err := ex.apply(b)
	if remote {
		ex.bytesRecv += int64(len(b))
		ex.itemsRecv += items
	}
	if err != nil {
		return fmt.Errorf("driver: node %d decode count batch: %w", ex.n.id, err)
	}
	if !remote {
		// Loopback buffers are owned by this node end to end; hand the
		// drained buffer back to the batchers.
		select {
		case ex.free <- b[:0]:
		default:
		}
	}
	return nil
}

// Finish is called by the main goroutine after its scan: it signals end of
// stream, waits for the receiver, folds the receive-side counters into the
// pass window and re-queues any stashed messages for the pass-end protocol.
func (ex *Exchange) Finish() error {
	for p := 0; p < ex.n.ep.N(); p++ {
		if p == ex.n.id {
			continue
		}
		if err := ex.n.ep.Send(p, KDone, nil); err != nil {
			return err
		}
	}
	close(ex.selfq)
	err := <-ex.done
	ex.n.pending = append(ex.n.pending, ex.stash...)
	ex.stash = nil
	ex.n.cur.ItemsReceived += ex.itemsRecv
	ex.n.cur.DataBytesReceived += ex.bytesRecv
	return err
}

// ItemsApplier adapts a per-itemset apply function to the Exchange's
// per-batch callback: batches are concatenations of wire item units, decoded
// with a reusable scratch buffer. The returned function is single-goroutine
// (the Exchange receiver), like apply itself.
func ItemsApplier(apply func(items []item.Item)) func(batch []byte) (int64, error) {
	dec := make([]item.Item, 0, 32)
	return func(b []byte) (int64, error) {
		var n int64
		d := wire.NewDec(b)
		for d.More() {
			if dec = d.Items(dec[:0]); d.Err() != nil {
				break
			}
			n += int64(len(dec))
			apply(dec)
		}
		return n, d.Err()
	}
}

// batchBytes is the count-support send batching threshold: a destination's
// batch is sent once it reaches 4 KB.
const batchBytes = 4 << 10

// Batcher accumulates payload units per destination and flushes them as
// data-batch messages once a batch reaches batchBytes; units for the local
// node go through the loopback queue without touching the fabric. Each
// producer (scan worker) must own its own Batcher.
type Batcher struct {
	ex    *Exchange
	bufs  [][]byte
	limit int
}

// NewBatcher returns a fresh per-producer batcher for this exchange.
func (ex *Exchange) NewBatcher() *Batcher {
	return &Batcher{
		ex:    ex,
		bufs:  make([][]byte, ex.n.ep.N()),
		limit: batchBytes,
	}
}

// AddItems appends one itemset unit (wire item encoding) for dest, flushing
// if the batch is full.
func (b *Batcher) AddItems(dest int, items []item.Item) error {
	b.bufs[dest] = wire.AppendItems(b.take(dest), items)
	if len(b.bufs[dest]) >= b.limit {
		return b.Flush(dest)
	}
	return nil
}

// AddRaw appends one already-encoded unit for dest (the unit bytes are
// copied), flushing if the batch is full. The unit encoding must match what
// the exchange's apply callback decodes.
func (b *Batcher) AddRaw(dest int, unit []byte) error {
	b.bufs[dest] = append(b.take(dest), unit...)
	if len(b.bufs[dest]) >= b.limit {
		return b.Flush(dest)
	}
	return nil
}

// take returns dest's batch buffer. An empty batch gets a recycled loopback
// buffer, or else a fresh one at full size: the limit plus room for a unit.
func (b *Batcher) take(dest int) []byte {
	if b.bufs[dest] == nil {
		select {
		case b.bufs[dest] = <-b.ex.free:
		default:
			b.bufs[dest] = make([]byte, 0, b.limit+b.limit/16)
		}
	}
	return b.bufs[dest]
}

// Flush sends dest's accumulated batch, if any.
func (b *Batcher) Flush(dest int) error {
	buf := b.bufs[dest]
	if len(buf) == 0 {
		return nil
	}
	b.bufs[dest] = nil // receiver takes ownership of the buffer
	if dest == b.ex.n.id {
		select {
		case b.ex.selfq <- buf:
			return nil
		case <-b.ex.dead:
			return fmt.Errorf("driver: node %d receiver stopped mid count phase", dest)
		}
	}
	return b.ex.n.ep.Send(dest, b.ex.kind, buf)
}

// FlushAll drains every destination buffer.
func (b *Batcher) FlushAll() error {
	for dest := range b.bufs {
		if err := b.Flush(dest); err != nil {
			return err
		}
	}
	return nil
}
