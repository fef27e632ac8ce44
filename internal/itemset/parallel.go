package itemset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgarm/internal/item"
)

// Hook is the per-worker observability callback the parallel pass-boundary
// builders thread through to the tracer: hook(w) is invoked as worker w
// starts and the func it returns as the worker finishes (a span open/close
// pair). A nil Hook is inert and costs nothing.
type Hook func(w int) func()

func (h Hook) Begin(w int) func() {
	if h == nil {
		return func() {}
	}
	return h(w)
}

// This file is the one place the miners start worker goroutines (the node
// goroutines of driver.Run aside): Fan for fork-join work, Go for the one
// worker that outlives its caller's stack frame. Both run the worker through
// runWorker, so a worker's panic is never a process crash.

// runWorker runs fn(w) inside hook's span; a panic in fn becomes the
// worker's error, naming it.
func runWorker(name string, w int, hook Hook, fn func(w int) error) (err error) {
	defer hook.Begin(w)()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s worker %d panicked: %v", name, w, r)
		}
	}()
	return fn(w)
}

// Fan runs fn(w) for every w in [0, workers) and returns once all are done:
// inline on the calling goroutine when workers <= 1, otherwise one goroutine
// per worker. hook brackets each worker; name labels the work in the error a
// panicking worker is turned into. The first error in worker order wins.
func Fan(name string, workers int, hook Hook, fn func(w int) error) error {
	if workers <= 1 {
		return runWorker(name, 0, hook, fn)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runWorker(name, w, hook, fn)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MustFan is Fan for work that cannot fail and callers with no error return:
// a worker's panic is re-raised on the calling goroutine (as the error naming
// the worker), where the node's own recover reports it.
func MustFan(name string, workers int, hook Hook, fn func(w int)) {
	err := Fan(name, workers, hook, func(w int) error {
		fn(w)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// Go starts fn on its own goroutine and sends its error — or its panic, as
// an error — on done, which must have room for it. It exists for the
// count-support receiver, which runs beside its node's scan rather than
// under a fork-join.
func Go(name string, done chan<- error, fn func() error) {
	go func() {
		done <- runWorker(name, 0, nil, func(int) error { return fn() })
	}()
}

// ForShards splits [0, n) into at most workers contiguous ranges and runs
// fn(w, lo, hi) for each on its own goroutine, returning when all are done.
// With workers <= 1 (or n too small to split) fn runs inline. The shard
// index w is dense from 0 and ranges ascend with it, so callers that collect
// per-shard output and concatenate it in shard order reproduce the
// sequential iteration order exactly.
func ForShards(n, workers int, hook Hook, fn func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	workers = max(min(workers, n), 1)
	MustFan("shard", workers, hook, func(w int) {
		fn(w, n*w/workers, n*(w+1)/workers)
	})
}

// fillParallel initializes the probe for sets and inserts every set, CAS-ing
// ids into slots across workers. Duplicate itemsets keep the lowest id —
// the same winner as the sequential first-occurrence rule.
func (f *flatProbe) fillParallel(sets [][]item.Item, workers int) {
	f.init(len(sets))
	const minChunk = 512
	workers = min(workers, len(sets)/minChunk)
	if workers <= 1 {
		for i := range sets {
			if f.findItems(sets[i], sets) < 0 {
				f.place(int32(i), sets[i])
			}
		}
		return
	}
	ForShards(len(sets), workers, nil, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f.placeCAS(int32(i), sets)
		}
	})
}

// placeCAS inserts one id lock-free. Two equal itemsets follow the same
// probe sequence, so they meet at the same slot; the loser of the CAS sees
// the winner and resolves the duplicate toward the lower id.
func (f *flatProbe) placeCAS(id int32, sets [][]item.Item) {
	items := sets[id]
	s := flatHash(items) & f.mask
	for {
		v := atomic.LoadInt32(&f.slots[s])
		if v == 0 {
			if atomic.CompareAndSwapInt32(&f.slots[s], 0, id+1) {
				return
			}
			v = atomic.LoadInt32(&f.slots[s])
		}
		if other := v - 1; item.Equal(sets[other], items) {
			for other > id {
				if atomic.CompareAndSwapInt32(&f.slots[s], v, id+1) {
					return
				}
				v = atomic.LoadInt32(&f.slots[s])
				other = v - 1
			}
			return
		}
		s = (s + 1) & f.mask
	}
}

// GenParallel is Gen with the pass boundary parallelized: the sorted L_{k-1}
// is split at (k-2)-prefix run boundaries — joins only pair sets inside one
// run, so shards never produce overlapping candidates — and each shard
// joins and prunes into its own flat arena (one backing array per shard
// instead of one allocation per candidate). Prune membership is an
// open-addressed probe over the sorted sets keyed by the FNV hash, replacing
// the map of packed Key strings. Concatenating the shard outputs in shard
// order reproduces Gen's lexicographic output bit-identically; workers <= 1
// runs the same code on one goroutine.
//
// Every miner hands over the L_{k-1} its barrier recorded, which is already
// in canonical order, so prev is only checked (one linear pass) and read in
// place; unsorted input is copied and sorted first.
func GenParallel(prev [][]item.Item, workers int, hook Hook) [][]item.Item {
	if len(prev) == 0 {
		return nil
	}
	k1 := len(prev[0])
	sets := prev
	if !setsSorted(sets) {
		sets = make([][]item.Item, len(prev))
		copy(sets, prev)
		SortSets(sets)
	}

	var prune flatProbe
	prune.fillParallel(sets, workers)

	bounds := prefixRunBounds(sets, k1-1, workers)
	outs := make([][][]item.Item, len(bounds)-1)
	MustFan("generate", len(outs), hook, func(s int) {
		outs[s] = genShard(sets, &prune, k1, bounds[s], bounds[s+1])
	})

	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total == 0 {
		return nil
	}
	out := make([][]item.Item, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// setsSorted reports whether sets is in strictly ascending lexicographic
// order.
func setsSorted(sets [][]item.Item) bool {
	for i := 1; i < len(sets); i++ {
		if item.Compare(sets[i-1], sets[i]) >= 0 {
			return false
		}
	}
	return true
}

// genShard joins and prunes one prefix-aligned range of the sorted L_{k-1}.
// Surviving candidates are appended to a single flat arena and sliced out
// after the arena stops growing, so the shard performs O(1) allocations
// however many candidates it emits.
func genShard(sets [][]item.Item, prune *flatProbe, k1, lo, hi int) [][]item.Item {
	k := k1 + 1
	scratch := make([]item.Item, 0, k)
	sub := make([]item.Item, 0, k1)
	var arena []item.Item
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			if !item.Equal(sets[i][:k1-1], sets[j][:k1-1]) {
				break // sorted order: no further joins for i
			}
			scratch = append(scratch[:0], sets[i]...)
			scratch = append(scratch, sets[j][k1-1])
			ok := true
			for drop := 0; drop < k-2; drop++ {
				sub = sub[:0]
				for x := range scratch {
					if x != drop {
						sub = append(sub, scratch[x])
					}
				}
				if prune.findItems(sub, sets) < 0 {
					ok = false
					break
				}
			}
			if ok {
				arena = append(arena, scratch...)
			}
		}
	}
	nc := len(arena) / k
	out := make([][]item.Item, nc)
	for c := 0; c < nc; c++ {
		out[c] = arena[c*k : (c+1)*k : (c+1)*k]
	}
	return out
}

// prefixRunBounds splits [0, len(sets)) into up to workers ranges whose
// boundaries never fall inside a run of equal p-item prefixes. With p == 0
// (generating 2-itemsets from singletons) every set shares the empty prefix,
// so a single range comes back and the join runs sequentially — that pass
// uses the dedicated Pairs path anyway.
func prefixRunBounds(sets [][]item.Item, p, workers int) []int {
	n := len(sets)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, 1, workers+1)
	for w := 1; w < workers; w++ {
		b := n * w / workers
		last := bounds[len(bounds)-1]
		if b <= last {
			continue
		}
		for b < n && item.Equal(sets[b-1][:p], sets[b][:p]) {
			b++
		}
		if b > last && b < n {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, n)
}

// BuildIndexParallel is BuildIndex with the slot fill sharded across
// workers (the prefix layout is one linear pass over the sets either way).
// Ids, lookups, counting and duplicate handling (first occurrence keeps the
// id) are identical to the sequential build.
func BuildIndexParallel(sets [][]item.Item, workers int) *Index {
	if workers <= 1 {
		return BuildIndex(sets)
	}
	ix := &Index{sets: sets}
	ix.idx.fillParallel(sets, workers)
	ix.pre.build(sets)
	return ix
}
