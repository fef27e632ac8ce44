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

// panicMiner is a three-item miner whose pass 2 panics off the node goroutine:
// in a ForShards shard of PlanPass, or in the apply callback of the
// count-support receiver.
type panicMiner struct {
	LevelBarrier
	inPlan bool
}

func (m *panicMiner) LocalSize() int { return 4 }
func (m *panicMiner) NumItems() int  { return 3 }

func (m *panicMiner) CountPass1(*Node, *metrics.NodeStats) ([]int64, error) {
	return []int64{4, 4, 4}, nil
}

func (m *panicMiner) FinishPass1(n *Node, global []int64) (int, error) {
	return len(m.FinishItems(n, global)), nil
}

func (m *panicMiner) Generate(*Node, int) (int, error) { return 3, nil }

func (m *panicMiner) PlanPass(*Node, int, *metrics.SkewReport) (PlanDecision, error) {
	if m.inPlan {
		itemset.ForShards(8, 2, nil, func(w, _, _ int) {
			if w == 1 {
				panic("plan boom")
			}
		})
	}
	return PlanDecision{}, nil
}

func (m *panicMiner) CountPass(n *Node, _ int, _ *metrics.NodeStats) (PassOutcome, error) {
	ex := n.NewExchange(KData, func([]byte) (int64, error) { panic("apply boom") })
	bat := ex.NewBatcher()
	err := bat.AddItems(n.ID(), []item.Item{1, 2})
	if err == nil {
		err = bat.FlushAll()
	}
	if ferr := ex.Finish(); err == nil {
		err = ferr
	}
	return PassOutcome{}, err
}

// TestRunSurvivesWorkerPanic: a panic on a goroutine the node started — a
// pass-boundary shard, the exchange receiver — ends the run with an error
// naming the node and the worker instead of killing the process.
func TestRunSurvivesWorkerPanic(t *testing.T) {
	for _, c := range []struct {
		inPlan bool
		want   []string
	}{
		{true, []string{"driver: node ", " panicked: shard worker 1 panicked: plan boom"}},
		{false, []string{"driver: node ", " pass 2: ", "recv worker 0 panicked: apply boom"}},
	} {
		for _, size := range []int{1, 3} {
			_, _, err := Run(Spec{MinSupport: 0.5}, size, func(int) (Miner, error) {
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
	return PassOutcome{Owned: []byte{0}}, nil
}

// TestRunEndsWhenOneNodeFails: one node of three returning an error ends the
// whole in-process run, on both fabrics, with that node's error — its peers
// are released by the fabric shutdown instead of waiting on it forever.
func TestRunEndsWhenOneNodeFails(t *testing.T) {
	for _, fk := range []FabricKind{FabricChan, FabricTCP} {
		done := make(chan error, 1)
		go func() {
			_, _, err := Run(Spec{MinSupport: 0.5, Fabric: fk}, 3, func(int) (Miner, error) { return &failMiner{}, nil })
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
