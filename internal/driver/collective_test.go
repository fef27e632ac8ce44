package driver

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
	"pgarm/internal/wire"
)

// TestGatherBcast drives the protocol's two collectives directly, at one node
// (no peers: nothing to wait for, nothing to send) and at three.
func TestGatherBcast(t *testing.T) {
	for _, size := range []int{1, 3} {
		nodes, f := newTestNodes(t, size)
		defer f.Close()
		var wg sync.WaitGroup
		for _, nd := range nodes[1:] {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				// An early message of a kind the gather does not list,
				// then the two it does.
				for _, kind := range []uint8{KData, KLocalLarge, KDupCounts} {
					if err := nd.ep.Send(0, kind, []byte{byte(nd.id), kind}); err != nil {
						t.Error(err)
					}
				}
				payload, err := nd.bcast(KLarge, nil, nil)
				if err != nil || string(payload) != "F_k" {
					t.Errorf("node %d: broadcast %q, err %v", nd.id, payload, err)
				}
			}(nd)
		}

		coord := nodes[0]
		got := map[uint8][]int{}
		err := coord.gather(func(m cluster.Message) error {
			if !reflect.DeepEqual(m.Payload, []byte{byte(m.From), m.Kind}) {
				t.Errorf("size %d: kind %d from node %d carries %v", size, m.Kind, m.From, m.Payload)
			}
			got[m.Kind] = append(got[m.Kind], m.From)
			return nil
		}, KLocalLarge, KDupCounts)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []uint8{KLocalLarge, KDupCounts} {
			if len(got[kind]) != size-1 {
				t.Errorf("size %d: folded %d %s messages, want %d", size, len(got[kind]), kindName(kind), size-1)
			}
		}
		if len(got) > 2 || (size == 1 && len(got) != 0) {
			t.Errorf("size %d: folded kinds %v", size, got)
		}
		// The unlisted kind is stashed for the phase that wants it.
		for p := 1; p < size; p++ {
			m, err := coord.recvKind(KData)
			if err != nil || m.Kind != KData {
				t.Fatalf("size %d: stashed message %+v, err %v", size, m, err)
			}
		}
		if len(coord.pending) != 0 {
			t.Errorf("size %d: %d messages left pending", size, len(coord.pending))
		}

		var order []int
		payload, err := coord.bcast(KLarge, []byte("F_k"), func(p int) { order = append(order, p) })
		if err != nil || string(payload) != "F_k" {
			t.Errorf("size %d: coordinator broadcast %q, err %v", size, payload, err)
		}
		if want := []int{1, 2}[:size-1]; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("size %d: sent callback order %v, want %v", size, order, want)
		}
		wg.Wait()
	}
}

// TestGatherRejectsSecondMessage: one message of each kind per peer — a peer
// repeating itself is a protocol error, not another peer's contribution.
func TestGatherRejectsSecondMessage(t *testing.T) {
	nodes, f := newTestNodes(t, 3)
	defer f.Close()
	for i := 0; i < 2; i++ {
		if err := nodes[1].ep.Send(0, KCounts1, nil); err != nil {
			t.Fatal(err)
		}
	}
	folded := 0
	err := nodes[0].gather(func(cluster.Message) error { folded++; return nil }, KCounts1)
	if err == nil || !strings.Contains(err.Error(), "second counts1 message from node 1") {
		t.Fatalf("got %v after folding %d messages", err, folded)
	}
	if folded != 1 {
		t.Errorf("folded %d messages, want 1", folded)
	}
}

// threeItems is the test miners' hierarchy: three roots, no ancestors.
var threeItems = taxonomy.MustNew([]item.Item{item.None, item.None, item.None})

// basket is one node's partition for the test miners: four transactions of
// all three items, so every item is large at minimum support 0.5.
func basket() txn.Scanner {
	db := txn.NewDB(nil)
	for tid := range 4 {
		db.Append(txn.Transaction{TID: int64(tid), Items: []item.Item{0, 1, 2}})
	}
	return db
}

// baskets is n nodes' partitions, each a basket.
func baskets(n int) []txn.Scanner {
	parts := make([]txn.Scanner, n)
	for i := range parts {
		parts[i] = basket()
	}
	return parts
}

// panicMiner is a three-item miner whose pass 2 panics off the node goroutine:
// in an itemset.Fan worker of PlanPass, or in the apply callback of the
// count-support receiver, which every node's next peer sends one unit.
type panicMiner struct {
	inPlan bool
}

func (m *panicMiner) FinishPass1(*Node, []int64, []int64, []itemset.Counted) error { return nil }

func (m *panicMiner) Generate(*Node, int, [][]item.Item) (int, error) { return 3, nil }

func (m *panicMiner) PlanPass(*Node, int) (PlanDecision, error) {
	if m.inPlan {
		return PlanDecision{}, itemset.Fan("plan", 2, nil, func(w int) error {
			if w == 1 {
				panic("plan boom")
			}
			return nil
		})
	}
	return PlanDecision{}, nil
}

func (m *panicMiner) CountPass(n *Node, _ int, _ *metrics.NodeStats) (PassOutcome, error) {
	ex := n.NewExchange(KData, func([]byte) (int64, error) { panic("apply boom") })
	bat := ex.NewBatcher()
	err := bat.AddItems((n.ID()+1)%n.NumNodes(), []item.Item{1, 2})
	if err == nil {
		err = bat.FlushAll()
	}
	if ferr := ex.Finish(); err == nil {
		err = ferr
	}
	return PassOutcome{}, err
}

// TestRunSurvivesWorkerPanic: a panic on a goroutine the node started — a
// plan-phase fan-out worker, the exchange receiver — ends the run with an error
// naming the node and the worker instead of killing the process.
func TestRunSurvivesWorkerPanic(t *testing.T) {
	for _, c := range []struct {
		inPlan bool
		sizes  []int // a receiver needs a peer to apply anything
		want   []string
	}{
		{true, []int{1, 3}, []string{"driver: node ", " pass 2 plan: ", "plan worker 1 panicked: plan boom"}},
		{false, []int{2, 3}, []string{"driver: node ", " pass 2: ", "recv worker 0 panicked: apply boom"}},
	} {
		for _, size := range c.sizes {
			_, err := Run(Spec{MinSupport: 0.5}, threeItems, baskets(size), func(int) (Miner, error) {
				return &panicMiner{inPlan: c.inPlan}, nil
			})
			for _, want := range c.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("inPlan=%v nodes=%d: got %v, want it to contain %q", c.inPlan, size, err, want)
				}
			}
		}
	}
}

// failMiner is panicMiner's quiet sibling: pass 2 returns an error on node 1
// only. Node 0 goes straight to the barrier and node 2 through a count-phase
// exchange, so the failure finds one peer blocked in recvKind and the other in
// the exchange receiver, both waiting on node 1.
type failMiner struct{ panicMiner }

func (m *failMiner) CountPass(n *Node, _ int, _ *metrics.NodeStats) (PassOutcome, error) {
	switch n.ID() {
	case 1:
		return PassOutcome{}, errors.New("corrupt block in partition 1")
	case 2:
		if err := n.NewExchange(KData, ItemsApplier(func([]item.Item) {})).Finish(); err != nil {
			return PassOutcome{}, err
		}
	}
	return PassOutcome{}, nil
}

// TestRunEndsWhenOneNodeFails: one node of three returning an error ends the
// whole in-process run, on both fabrics, with that node's error — its peers
// are released by the fabric shutdown instead of waiting on it forever.
func TestRunEndsWhenOneNodeFails(t *testing.T) {
	for _, fk := range []FabricKind{FabricChan, FabricTCP} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(Spec{MinSupport: 0.5, Fabric: fk}, threeItems, baskets(3), func(int) (Miner, error) { return &failMiner{}, nil })
			done <- err
		}()
		select {
		case err := <-done:
			for _, want := range []string{"driver: node 1 pass 2: ", "corrupt block in partition 1"} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("fabric %d: got %v, want it to contain %q", fk, err, want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("fabric %d: Run still blocked 10s after node 1 failed", fk)
		}
	}
}

// barrierMiner reports, in pass 2, one owned pair per node and two replicated
// pairs, so the barrier carries a non-empty KLocalLarge and KDupCounts from
// every follower.
type barrierMiner struct{ panicMiner }

func (m *barrierMiner) CountPass(n *Node, _ int, _ *metrics.NodeStats) (PassOutcome, error) {
	own := itemset.Counted{Items: []item.Item{item.Item(n.ID()), item.Item(n.ID() + 3)}, Count: 6}
	return PassOutcome{
		Own:       []itemset.Counted{own},
		DupSets:   [][]item.Item{{0, 1}, {1, 2}},
		DupCounts: []int64{2, 3},
	}, nil
}

// tamperEndpoint rewrites the payload of every message of one kind it sends.
type tamperEndpoint struct {
	cluster.Endpoint
	kind   uint8
	tamper func([]byte) []byte
}

func (e tamperEndpoint) Send(to int, kind uint8, payload []byte) error {
	if kind == e.kind {
		payload = e.tamper(payload)
	}
	return e.Endpoint.Send(to, kind, payload)
}

// TestBarrierFaultsEndRun: a follower whose pass-1 or F_k barrier message is
// malformed — a truncated KCounts1 or KLocalLarge, a KCounts1 or KDupCounts
// vector of the wrong length — ends a three-node run on both fabrics with the
// coordinator's named error and no Result on any node, in bounded time.
// Untampered, the same run succeeds.
func TestBarrierFaultsEndRun(t *testing.T) {
	cases := []struct {
		name   string
		kind   uint8
		tamper func([]byte) []byte
		want   string
	}{
		{"intact", 0, nil, ""},
		{"truncated-counts1", KCounts1, func(p []byte) []byte { return p[:len(p)-1] },
			"driver: decode pass-1 item counts from node 1: "},
		{"short-counts1", KCounts1, func([]byte) []byte { return sizedCounts(4, []int64{4, 4}) },
			"driver: decode pass-1 item counts from node 1: 2 counts, want 3"},
		{"truncated-owned", KLocalLarge, func(p []byte) []byte { return p[:len(p)-1] },
			"driver: decode owned frequents from node 1: "},
		{"short-dup-counts", KDupCounts, func([]byte) []byte { return wire.AppendCountsAuto(nil, []int64{2}) },
			"driver: node 1 sent 1 replicated counts, want 2"},
	}
	for _, fk := range []FabricKind{FabricChan, FabricTCP} {
		for _, c := range cases {
			name := fmt.Sprintf("fabric%d/%s", fk, c.name)
			f, err := NewFabric(fk, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				node int
				res  *Result
				err  error
			}
			done := make(chan outcome, 3)
			for i := 0; i < 3; i++ {
				ep := f.Endpoint(i)
				if i == 1 && c.tamper != nil {
					ep = tamperEndpoint{ep, c.kind, c.tamper}
				}
				go func(i int, ep cluster.Endpoint) {
					res, err := RunWorker(Spec{MinSupport: 0.5, MaxK: 2, Fabric: fk}, threeItems, basket(), ep, func() (Miner, error) { return &barrierMiner{}, nil })
					done <- outcome{i, res, err}
				}(i, ep)
			}
			results := make([]*Result, 3)
			errs := make([]error, 3)
			for range 3 {
				select {
				case o := <-done:
					results[o.node], errs[o.node] = o.res, o.err
					if o.err != nil {
						f.Close() // as Run does: the first failure takes the fabric down
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: run still blocked after 10s", name)
				}
			}
			f.Close()
			if c.tamper == nil {
				for i := range 3 {
					if errs[i] != nil {
						t.Fatalf("%s: node %d: %v", name, i, errs[i])
					}
					if got := len(results[i].LargeK(2)); got != 5 {
						t.Errorf("%s: node %d has %d large pairs, want 5", name, i, got)
					}
				}
				continue
			}
			if errs[0] == nil || !strings.Contains(errs[0].Error(), c.want) {
				t.Errorf("%s: coordinator got %v, want it to contain %q", name, errs[0], c.want)
			}
			for i := range 3 {
				if errs[i] == nil || results[i] != nil {
					t.Errorf("%s: node %d ended with a result: %v, error %v; want no result and an error", name, i, results[i] != nil, errs[i])
				}
			}
		}
	}
}
