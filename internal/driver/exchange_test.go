package driver

import (
	"sync"
	"testing"

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
		nodes[i] = &Node{id: i, ep: f.Endpoint(i)}
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
		if total != 3*unitsPerPeer {
			t.Errorf("node %d received %d units, want %d", i, total, 3*unitsPerPeer)
		}
		// Every unit must arrive exactly once.
		for key, c := range received[i] {
			if c != 1 {
				t.Errorf("node %d unit (key %x) delivered %d times", i, key, c)
			}
		}
	}
}

func TestCountPhaseSingleNodeLoopback(t *testing.T) {
	nodes, f := newTestNodes(t, 1)
	defer f.Close()
	nd := nodes[0]
	got := 0
	cp := nd.NewExchange(KData, ItemsApplier(func(items []item.Item) { got += len(items) }))
	bat := smallBatcher(cp)
	for i := 0; i < 10; i++ {
		if err := bat.AddItems(0, []item.Item{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Finish(); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("received %d items, want 30", got)
	}
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

func TestBatcherAddRawMatchesAddItems(t *testing.T) {
	nodes, f := newTestNodes(t, 1)
	defer f.Close()
	nd := nodes[0]
	var got [][]item.Item
	cp := nd.NewExchange(KData, ItemsApplier(func(items []item.Item) {
		cp := make([]item.Item, len(items))
		copy(cp, items)
		got = append(got, cp)
	}))
	bat := smallBatcher(cp)
	if err := bat.AddRaw(0, wire.AppendItems(nil, []item.Item{4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	if err := bat.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 3 || got[0][0] != 4 || got[0][2] != 6 {
		t.Fatalf("AddRaw unit decoded as %v", got)
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
