package driver

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// newTestNodes wires bare nodes (no miner) to a channel fabric for
// exercising the count-phase machinery directly.
func newTestNodes(t *testing.T, n int) ([]*Node, cluster.Fabric) {
	t.Helper()
	f := cluster.NewChanFabric(n, 16)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = newNode(f.Endpoint(i), Spec{}, nil, nil, nil)
	}
	return nodes, f
}

// smallBatcher is ex.NewBatcher with a 64-byte flush threshold, so a test's
// few hundred units cross it many times.
func smallBatcher(ex *Exchange) *Batcher {
	b := ex.NewBatcher()
	b.limit = 64
	return b
}

// peerExchange runs node nd's exchange with apply on its own goroutine until
// every peer has sent KDone; the returned function waits for it.
func peerExchange(t *testing.T, nd *Node, apply func([]byte) (int64, error)) (wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := nd.NewExchange(KData, apply).Finish(); err != nil {
			t.Errorf("node %d finish: %v", nd.id, err)
		}
	}()
	return func() { <-done }
}

func TestCountPhaseDeliversAllUnits(t *testing.T) {
	nodes, f := newTestNodes(t, 3)
	defer f.Close()

	const unitsPerPeer = 500
	var wg sync.WaitGroup
	received := make([]map[string]int, 3)
	for i, nd := range nodes {
		received[i] = map[string]int{}
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			recv := received[i]
			cp := nd.NewExchange(KData, ItemsApplier(func(items []item.Item) {
				recv[itemset.Key(items)]++
			}))
			bat := smallBatcher(cp)
			for u := 0; u < unitsPerPeer; u++ {
				// Unit value encodes the sender so receivers can verify.
				unit := []item.Item{item.Item(i), item.Item(100 + u)}
				for dest := 0; dest < 3; dest++ {
					if dest == i {
						continue
					}
					if err := bat.AddItems(dest, unit); err != nil {
						t.Errorf("add: %v", err)
					}
				}
			}
			if err := bat.FlushAll(); err != nil {
				t.Errorf("flush: %v", err)
			}
			if err := cp.Finish(); err != nil {
				t.Errorf("finish: %v", err)
			}
		}(i, nd)
	}
	wg.Wait()
	for i := range nodes {
		total := 0
		for _, c := range received[i] {
			total += c
		}
		if total != 2*unitsPerPeer {
			t.Errorf("node %d received %d units, want %d", i, total, 2*unitsPerPeer)
		}
		// Every unit must arrive exactly once.
		for key, c := range received[i] {
			if c != 1 {
				t.Errorf("node %d unit (key %x) delivered %d times", i, key, c)
			}
		}
	}
}

// TestBatcherRejectsSelf: a node handles its own share in place, so every
// way of batching for itself — AddItems, AddRun, Flush — is an error
// naming the node, and nothing reaches the fabric: the node sends nothing
// (its receive counters may move, since the peer finishes its own exchange
// concurrently). FlushAll skips the node itself, and an exchange with no
// peers finishes at once.
func TestBatcherRejectsSelf(t *testing.T) {
	for _, size := range []int{1, 2} {
		nodes, f := newTestNodes(t, size)
		nd := nodes[size-1]
		var wait func()
		if size == 2 {
			wait = peerExchange(t, nodes[0], func([]byte) (int64, error) { return 0, nil })
		}
		ex := nd.NewExchange(KData, func([]byte) (int64, error) {
			t.Error("a batch was applied")
			return 0, nil
		})
		bat := ex.NewBatcher()
		before := nd.ep.Stats()
		want := fmt.Sprintf("node %d batched for itself", nd.id)
		for name, add := range map[string]func() error{
			"AddItems": func() error { return bat.AddItems(nd.id, []item.Item{1, 2}) },
			"AddRun":   func() error { return bat.AddRun(nd.id, []byte{1}, []byte{2}) },
			"Flush":    func() error { return bat.Flush(nd.id) },
		} {
			if err := add(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d nodes: %s to self: got %v, want an error containing %q", size, name, err, want)
			}
		}
		if err := bat.FlushAll(); err != nil {
			t.Errorf("%d nodes: FlushAll: %v", size, err)
		}
		if after := nd.ep.Stats(); after.MsgsSent != before.MsgsSent || after.BytesSent != before.BytesSent {
			t.Errorf("%d nodes: endpoint sent traffic moved from %+v to %+v", size, before, after)
		}
		if err := ex.Finish(); err != nil {
			t.Errorf("%d nodes: Finish: %v", size, err)
		}
		if wait != nil {
			wait()
		}
		f.Close()
	}
}

// TestBatcherAddItemsZeroAlloc: AddItems, HPGM's and H-HPGM's sender,
// encodes a unit into its peer's open batch; units that do not fill the
// batch allocate nothing.
func TestBatcherAddItemsZeroAlloc(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	wait := peerExchange(t, nodes[1], func([]byte) (int64, error) { return 0, nil })
	ex := nodes[0].NewExchange(KData, func([]byte) (int64, error) { return 0, nil })
	bat := ex.NewBatcher()
	unit := []item.Item{3, 200, 1 << 20} // 7 bytes: one-, two- and three-byte varints
	add := func() {
		for range 64 { // 448 bytes, under the threshold
			if err := bat.AddItems(1, unit); err != nil {
				t.Fatal(err)
			}
		}
		bat.bufs[1] = bat.bufs[1][:0]
	}
	if allocs := testing.AllocsPerRun(20, add); allocs != 0 {
		t.Errorf("AddItems: %.1f allocs per 64 units, want 0", allocs)
	}
	if err := ex.Finish(); err != nil {
		t.Fatal(err)
	}
	wait()
}

func TestBatcherFlushesAtThreshold(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	a, b := nodes[0], nodes[1]

	var recvUnits int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cp := b.NewExchange(KData, ItemsApplier(func([]item.Item) { recvUnits++ }))
		if err := cp.Finish(); err != nil {
			t.Errorf("b finish: %v", err)
		}
	}()

	cp := a.NewExchange(KData, ItemsApplier(func([]item.Item) {}))
	bat := smallBatcher(cp)
	// The threshold is 64 bytes; a 2-item unit encodes to ~3-9 bytes, so well
	// before 100 units at least one flush must have happened without FlushAll.
	for i := 0; i < 100; i++ {
		if err := bat.AddItems(1, []item.Item{item.Item(i), item.Item(i + 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	if a.ep.Stats().MsgsSent == 0 {
		t.Error("no automatic flush at threshold")
	}
	if err := bat.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Finish(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvUnits != 100 {
		t.Errorf("receiver saw %d units, want 100", recvUnits)
	}
}

// TestBatcherAddRunMatchesAddItems: a unit handed to AddRun in two pieces
// arrives as the one unit AddItems would have sent.
func TestBatcherAddRunMatchesAddItems(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	var got [][]item.Item
	wait := peerExchange(t, nodes[1], ItemsApplier(func(items []item.Item) {
		got = append(got, slices.Clone(items))
	}))
	cp := nodes[0].NewExchange(KData, ItemsApplier(func([]item.Item) {}))
	bat := smallBatcher(cp)
	unit := wire.AppendItems(nil, []item.Item{4, 5, 6})
	if err := bat.AddRun(1, unit[:2], unit[2:]); err != nil {
		t.Fatal(err)
	}
	if err := bat.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Finish(); err != nil {
		t.Fatal(err)
	}
	wait()
	if len(got) != 1 || len(got[0]) != 3 || got[0][0] != 4 || got[0][2] != 6 {
		t.Fatalf("AddRun unit decoded as %v", got)
	}
}

func TestRecvKindStashesOthers(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	a, b := nodes[0], nodes[1]
	// b sends a data message then a large broadcast; a waits for the
	// broadcast first — the data message must survive in pending.
	if err := b.ep.Send(0, KData, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.ep.Send(0, KLarge, []byte{2}); err != nil {
		t.Fatal(err)
	}
	m, err := a.recvKind(KLarge)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KLarge {
		t.Fatalf("got kind %d", m.Kind)
	}
	if len(a.pending) != 1 || a.pending[0].Kind != KData {
		t.Fatalf("pending = %+v", a.pending)
	}
	// And the stashed message is consumed first on the next matching recv.
	m, err = a.recvKind(KData)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KData || len(a.pending) != 0 {
		t.Fatalf("stash replay failed: %+v pending=%d", m, len(a.pending))
	}
}

func TestCountPhaseConsumesPreStashedData(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	a, b := nodes[0], nodes[1]

	// b runs a full (empty) count phase later; first it pushes data + done
	// to a, which a stashes while waiting for an unrelated kind.
	unit := wire.AppendItems(nil, []item.Item{7, 9})
	if err := b.ep.Send(0, KData, unit); err != nil {
		t.Fatal(err)
	}
	if err := b.ep.Send(0, KDone, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.ep.Send(0, KLarge, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.recvKind(KLarge); err != nil {
		t.Fatal(err)
	}
	if len(a.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(a.pending))
	}

	got := 0
	cp := a.NewExchange(KData, ItemsApplier(func(items []item.Item) { got++ }))
	if err := cp.Finish(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("pre-stashed unit not applied: got %d", got)
	}
	if len(a.pending) != 0 {
		t.Errorf("pending not drained: %d", len(a.pending))
	}
}

// TestExchangeRecyclesBatches: once a first exchange has filled the free
// list, a 2-node exchange routing hundreds of full remote batches allocates
// O(1) batch buffers on either fabric, not one or two per batch.
func TestExchangeRecyclesBatches(t *testing.T) {
	const batches = 500 // full remote batches each node sends per exchange
	const bound = 64 * cluster.BatchCap
	unit := make([]byte, batchBytes/8)
	for _, fk := range []FabricKind{FabricChan, FabricTCP} {
		f, err := NewFabric(fk, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		nodes := []*Node{{id: 0, ep: f.Endpoint(0)}, {id: 1, ep: f.Endpoint(1)}}
		exchange := func() {
			var wg sync.WaitGroup
			for i, nd := range nodes {
				wg.Add(1)
				go func(i int, nd *Node) {
					defer wg.Done()
					got := 0
					ex := nd.NewExchange(KData, func(b []byte) (int64, error) { got += len(b); return 0, nil })
					bat := ex.NewBatcher()
					for u := 0; u < 8*batches; u++ {
						if err := bat.AddRun(1-i, nil, unit); err != nil {
							t.Error(err)
							break
						}
					}
					if err := bat.FlushAll(); err != nil {
						t.Error(err)
					}
					if err := ex.Finish(); err != nil {
						t.Error(err)
					}
					if got != batches*batchBytes {
						t.Errorf("fabric %d: node %d applied %d bytes, want %d", fk, i, got, batches*batchBytes)
					}
				}(i, nd)
			}
			wg.Wait()
		}
		exchange()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exchange()
		runtime.ReadMemStats(&after)
		f.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Errorf("fabric %d: %d remote batches per node allocated %d bytes, want O(1) batches (at most %d)", fk, batches, grew, bound)
		}
	}
}

// FuzzExchange drives one Exchange receiver, node 0 of three, through an
// arbitrary script: peer data batches, valid or corrupt, each peer's KDone,
// messages of foreign kinds (the other data kind included) before and after
// it, and a prefix of the peer messages already stashed when the exchange
// starts. Every payload is a
// NewBatch buffer, as a batcher's would be. The receiver must not panic or
// hang; Finish must fail exactly when a peer batch does not decode, and
// apply every item otherwise; and every foreign message must survive, in
// order and intact, in pending or the inbox, even after the released
// batches are rewritten.
func FuzzExchange(f *testing.F) {
	f.Add(byte(0), []byte{0x00, 0x01, 0x08, 0x0a, 0x04, 0x06, 0x10, 0x07})
	f.Add(byte(3), []byte{0x02, 0x03, 0xff, 0x01, 0x00, 0x09, 0x0c, 0x06})
	f.Add(byte(8), []byte{0x04, 0x05, 0x06, 0x07, 0x00, 0x0b, 0x12, 0x13})
	f.Add(byte(1), []byte{})
	f.Fuzz(func(t *testing.T, pre byte, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		kind, other := KData, KCondBase
		if pre&1 == 1 {
			kind, other = other, kind
		}
		type sent struct {
			cluster.Message
			want []byte // the payload's bytes as sent
		}
		var msgs, foreign []sent
		var wantItems int64
		wantErr := false
		var done [3]bool
		for i := 0; i < len(script); i++ {
			op := script[i]
			from := 1 + int(op&1)
			m := sent{Message: cluster.Message{From: from}}
			switch (op >> 1) % 4 {
			case 0: // a valid data batch
				m.Kind = kind
				m.Payload = wire.AppendItems(cluster.NewBatch(), []item.Item{item.Item(op), item.Item(op) + 1 + item.Item(i)})
			case 1: // a data batch of raw bytes: a length byte, then that many
				n := 0
				if i+1 < len(script) {
					i++
					n = min(int(script[i])%16, len(script)-i-1)
				}
				m.Kind = kind
				m.Payload = append(cluster.NewBatch(), script[i+1:i+1+n]...)
				i += n
			case 2:
				m.Kind = other
				m.Payload = append(cluster.NewBatch(), op, byte(i))
			case 3:
				m.Kind = KDone
			}
			if done[from] && (m.Kind == kind || m.Kind == KDone) {
				m.Kind = KLarge // nothing of the exchange trails a peer's KDone
			}
			m.want = bytes.Clone(m.Payload)
			switch m.Kind {
			case kind:
				n, err := ItemsApplier(func([]item.Item) {})(m.want)
				wantItems += n
				wantErr = wantErr || err != nil
			case KDone:
				done[from] = true
			default:
				foreign = append(foreign, m)
			}
			msgs = append(msgs, m)
		}
		for p := 1; p <= 2; p++ {
			if !done[p] {
				msgs = append(msgs, sent{Message: cluster.Message{From: p, Kind: KDone}})
			}
		}

		fab := cluster.NewChanFabric(3, len(msgs)+2) // no send blocks
		defer fab.Close()
		nd := &Node{id: 0, ep: fab.Endpoint(0)}
		stashed := int(pre>>1) % (len(msgs) + 1)
		for _, m := range msgs[:stashed] {
			nd.pending = append(nd.pending, m.Message)
		}
		var applied int64
		ex := nd.NewExchange(kind, ItemsApplier(func(items []item.Item) { applied += int64(len(items)) }))
		for _, m := range msgs[stashed:] {
			if err := fab.Endpoint(m.From).Send(0, m.Kind, m.Payload); err != nil {
				t.Fatal(err)
			}
		}
		finished := make(chan error, 1)
		go func() { finished <- ex.Finish() }()
		var err error
		select {
		case err = <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("exchange still running 10s after every peer's KDone")
		}
		if wantErr != (err != nil) || err != nil && !strings.Contains(err.Error(), "decode count batch") {
			t.Fatalf("Finish: %v; a peer batch fails to decode: %v", err, wantErr)
		}
		if err == nil && applied != wantItems {
			t.Fatalf("applied %d items, want %d", applied, wantItems)
		}

		// Rewrite whatever the exchange released, then check what is left.
		scribbled := make([][]byte, 64)
		for i := range scribbled {
			scribbled[i] = append(cluster.NewBatch(), bytes.Repeat([]byte{0xee}, 64)...)
		}
		for _, b := range scribbled {
			cluster.Release(b)
		}
		left := nd.pending
		for drained := false; !drained; {
			select {
			case m := <-nd.ep.Inbox():
				left = append(left, m)
			default:
				drained = true
			}
		}
		var kept []cluster.Message
		for _, m := range left {
			if m.Kind != kind && m.Kind != KDone {
				kept = append(kept, m)
			} else if err == nil {
				t.Fatalf("exchange finished cleanly but left a kind-%d message from node %d", m.Kind, m.From)
			}
		}
		if len(kept) != len(foreign) {
			t.Fatalf("%d foreign messages left, %d sent", len(kept), len(foreign))
		}
		for i, m := range kept {
			if w := foreign[i]; m.From != w.From || m.Kind != w.Kind || !bytes.Equal(m.Payload, w.want) {
				t.Fatalf("foreign message %d: from %d kind %d %x, sent from %d kind %d %x", i, m.From, m.Kind, m.Payload, w.From, w.Kind, w.want)
			}
		}
	})
}

// TestBatcherAddRunKeepsBatchCap: a run that would push the open batch past
// cluster.BatchCap sends that batch first and starts a new one, so every
// batch keeps the recyclable capacity and the run arrives whole; a run that
// fits joins the open batch.
func TestBatcherAddRunKeepsBatchCap(t *testing.T) {
	nodes, f := newTestNodes(t, 2)
	defer f.Close()
	var lens []int
	wait := peerExchange(t, nodes[1], func(batch []byte) (int64, error) {
		if cap(batch) != cluster.BatchCap {
			t.Errorf("batch of %d bytes has capacity %d, want %d", len(batch), cap(batch), cluster.BatchCap)
		}
		lens = append(lens, len(batch))
		return 0, nil
	})
	cp := nodes[0].NewExchange(KData, func([]byte) (int64, error) { return 0, nil })
	bat := cp.NewBatcher()
	head, body := []byte{1, 2}, bytes.Repeat([]byte{3}, 600)
	for _, step := range []func() error{
		func() error { return bat.AddRun(1, nil, make([]byte, 100)) },
		func() error { return bat.AddRun(1, head, body) }, // fits: 702 bytes open
		func() error { return bat.AddRun(1, nil, make([]byte, 3300)) },
		func() error { return bat.AddRun(1, head, body) }, // 4002 + 602 > BatchCap
		bat.FlushAll,
		cp.Finish,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	wait()
	if want := []int{4002, 602}; !slices.Equal(lens, want) {
		t.Fatalf("batches of %v bytes, want %v", lens, want)
	}
}
