package serve

import (
	"sync"
	"testing"
)

// TestHolderPublishesPairs: readers racing a swapper only ever see an index
// together with the generation it was published under. Read with two loads,
// a reader could pair a new index with the previous generation and key the
// cache by it.
func TestHolderPublishesPairs(t *testing.T) {
	const swaps = 5000
	ixs := make([]*Index, swaps)
	for i := range ixs {
		ixs[i] = &Index{}
	}
	h := NewHolder(nil)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ix, gen := h.Current()
				if ix == nil && gen == 0 {
					continue
				}
				if gen < 1 || gen > swaps || ixs[gen-1] != ix {
					t.Errorf("read generation %d with an index it did not publish", gen)
					return
				}
			}
		}()
	}
	for i, ix := range ixs {
		if gen := h.Swap(ix); gen != int64(i+1) {
			t.Errorf("swap %d published generation %d", i+1, gen)
		}
	}
	close(done)
	readers.Wait()
	if ix, gen := h.Current(); ix != ixs[swaps-1] || gen != swaps {
		t.Errorf("after %d swaps: generation %d", swaps, gen)
	}
}
