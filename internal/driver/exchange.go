package driver

import (
	"encoding/binary"
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// Exchange runs the count-support communication of one pass. The node's
// scan side — the node goroutine itself, or Spec.Workers sharded scan
// workers — reads the local partition, handles in place every unit its own
// node owns, and routes the rest (single k-itemsets for HPGM, per-transaction
// item groups for the H-HPGM family, conditional pattern bases for FPG) to
// their owners, while a single receiver goroutine applies every batch that
// arrives from a peer. The exchange carries only peers' bytes: a Batcher
// refuses a unit for its own node. Splitting producer and consumer this way
// is what prevents the classic all-to-all deadlock of two nodes blocked
// sending into each other's full inboxes: workers batch into per-worker send
// buffers (one Batcher per worker) while the receiver keeps draining the
// inbox.
//
// Termination: after the scan workers have joined and every per-worker
// batch is flushed, the main goroutine sends KDone to every peer; the
// receiver reads the fabric inbox until it has seen KDone from every peer.
// Worker sends happen-before the KDone send (the pool joins first), so
// per-sender FIFO delivery guarantees no data trails a peer's KDone.
type Exchange struct {
	n     *Node
	kind  uint8 // data-batch message kind (KData for count-support, KCondBase for pattern bases)
	apply func(batch []byte) (int64, error)
	done  chan error
	stash []cluster.Message // non-count-phase messages that arrived early
	// itemsRecv/bytesRecv count items and payload bytes decoded from peer
	// batches — the receiver-side half of the paper's communication
	// metrics. Counting at delivery rather than from fabric counters keeps
	// pass attribution exact even when a peer's pass-end control messages
	// arrive early.
	itemsRecv int64
	bytesRecv int64
}

// NewExchange launches the receiver goroutine for one exchange of this pass
// (through itemset.Go, so a panic in apply reaches Finish as an error).
// kind is the data-batch message kind: KData for the count-support phase;
// the FP-Growth engine routes conditional pattern bases as KCondBase so the
// per-kind byte accounting separates the two streams. Termination is KDone in
// either case. apply is invoked once per peer batch, from the receiver
// goroutine only — it has exclusive access to the state it touches until
// Finish returns. It must decode the batch's concatenated units and return
// the number of items it decoded (the receive-side item accounting);
// ItemsApplier adapts the common one-itemset-per-unit shape. apply must not
// keep the batch: it is released once apply returns.
func (n *Node) NewExchange(kind uint8, apply func(batch []byte) (int64, error)) *Exchange {
	ex := &Exchange{
		n:     n,
		kind:  kind,
		apply: apply,
		done:  make(chan error, 1),
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
		sp := n.beginRecv()
		err := ex.loop(pre)
		sp.Arg("items", ex.itemsRecv)
		sp.Arg("bytes", ex.bytesRecv)
		sp.End()
		return err
	})
	return ex
}

// loop is the receiver body: the pre-stashed messages, then the inbox, until
// every peer has sent KDone.
func (ex *Exchange) loop(pre []cluster.Message) error {
	peersLeft := ex.n.numPeers()
	inbox := ex.n.ep.Inbox()
	for i := 0; peersLeft > 0; i++ {
		var m cluster.Message
		ok := true
		if i < len(pre) {
			m = pre[i]
		} else if m, ok = <-inbox; !ok {
			if cause := ex.n.ep.Err(); cause != nil {
				return fmt.Errorf("driver: node %d inbox closed mid count phase: %w", ex.n.id, cause)
			}
			return fmt.Errorf("driver: node %d inbox closed mid count phase", ex.n.id)
		}
		switch m.Kind {
		case ex.kind:
			if err := ex.applyBatch(m.Payload); err != nil {
				return err
			}
		case KDone:
			peersLeft--
		default:
			ex.stash = append(ex.stash, m)
		}
	}
	return nil
}

// applyBatch hands one peer batch to the miner's decoder, accounts for it
// and releases it: the receiver owns every batch it is handed
// (Endpoint.Send).
func (ex *Exchange) applyBatch(b []byte) error {
	items, err := ex.apply(b)
	ex.bytesRecv += int64(len(b))
	ex.itemsRecv += items
	cluster.Release(b)
	if err != nil {
		return fmt.Errorf("driver: node %d decode count batch: %w", ex.n.id, err)
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
// batch is sent once it reaches 4 KB. cluster.BatchCap leaves room above it
// for the unit that crosses it.
const batchBytes = 4 << 10

// Batcher accumulates payload units per peer and flushes them as data-batch
// messages once a batch reaches batchBytes. AddItems and AddRun append in
// place through open and commit, which hold the room check, the threshold
// and the refusal of the batcher's own node: a unit, or a flush, for it is
// an error, since a node handles its own share in place. Each producer (scan
// worker) must own its own Batcher.
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

// AddItems encodes one itemset unit (wire.AppendItems) straight into peer
// dest's batch, flushing if the batch is full. The room check counts the
// unit's longest encoding, so only a unit of 50 items or more can send a
// batch below the threshold that its exact size would have kept open.
func (b *Batcher) AddItems(dest int, items []item.Item) error {
	buf, err := b.open(dest, binary.MaxVarintLen64+binary.MaxVarintLen32*len(items))
	if err != nil {
		return err
	}
	return b.commit(dest, wire.AppendItems(buf, items))
}

// AddRun appends one already-encoded run for peer dest, head then body (both
// copied; either may be empty), and flushes if the batch is full. The bytes
// must match what the exchange's apply callback decodes, and they arrive in
// one batch.
func (b *Batcher) AddRun(dest int, head, body []byte) error {
	buf, err := b.open(dest, len(head)+len(body))
	if err != nil {
		return err
	}
	return b.commit(dest, append(append(buf, head...), body...))
}

// open returns peer dest's open batch with room for need more bytes; the
// caller appends one unit of at most need bytes and hands the batch back
// through commit. A unit may be longer than the room cluster.BatchCap
// leaves above the threshold: when need would not fit, the open batch is
// sent first, so the unit starts a recycled batch instead of outgrowing
// one. Opening the batcher's own node is an error.
func (b *Batcher) open(dest, need int) ([]byte, error) {
	buf := b.bufs[dest]
	if len(buf) > 0 && len(buf)+need > cluster.BatchCap {
		if err := b.Flush(dest); err != nil {
			return nil, err
		}
		buf = nil
	}
	if buf == nil { // the node's own batch never opens
		if dest == b.ex.n.id {
			return nil, b.Flush(dest) // which refuses it
		}
		buf = cluster.NewBatch()
	}
	return buf, nil
}

// commit takes back the batch open handed over for dest, grown by one unit,
// and sends it once it reaches the threshold.
func (b *Batcher) commit(dest int, buf []byte) error {
	b.bufs[dest] = buf
	if len(buf) >= b.limit {
		return b.Flush(dest)
	}
	return nil
}

// Flush sends peer dest's accumulated batch, if any.
func (b *Batcher) Flush(dest int) error {
	if dest == b.ex.n.id {
		return fmt.Errorf("driver: node %d batched for itself: a node handles its own share in place", dest)
	}
	buf := b.bufs[dest]
	if len(buf) == 0 {
		return nil
	}
	b.bufs[dest] = nil // the fabric owns it now
	return b.ex.n.ep.Send(dest, b.ex.kind, buf)
}

// FlushAll drains every peer's buffer.
func (b *Batcher) FlushAll() error {
	for dest := range b.bufs {
		if dest == b.ex.n.id {
			continue
		}
		if err := b.Flush(dest); err != nil {
			return err
		}
	}
	return nil
}
