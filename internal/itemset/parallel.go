package itemset

import (
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
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		done := hook.Begin(0)
		fn(0, 0, n)
		done()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			done := hook.Begin(w)
			defer done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// SortSetsParallel is SortSets across workers: sorted chunks merged pairwise.
// The merge takes from the left run on ties, so for pairwise-distinct sets
// (itemset lists always are — L_{k-1} and C_k hold no duplicates) the result
// is the identical permutation SortSets produces.
func SortSetsParallel(sets [][]item.Item, workers int) {
	const minChunk = 1024 // below this the goroutine overhead dominates
	if workers > len(sets)/minChunk {
		workers = len(sets) / minChunk
	}
	if workers <= 1 {
		SortSets(sets)
		return
	}
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = len(sets) * w / workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			SortSets(sets[lo:hi])
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()

	buf := make([][]item.Item, len(sets))
	for len(bounds) > 2 {
		next := bounds[:1:1]
		var mwg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				mergeRuns(sets, buf, lo, mid, hi)
			}(bounds[i], bounds[i+1], bounds[i+2])
			next = append(next, bounds[i+2])
		}
		if len(bounds)%2 == 0 { // odd run count: the last run carries over
			next = append(next, bounds[len(bounds)-1])
		}
		mwg.Wait()
		bounds = next
	}
}

// mergeRuns merges the sorted runs sets[lo:mid] and sets[mid:hi] through buf
// back into sets, taking from the left run on ties.
func mergeRuns(sets, buf [][]item.Item, lo, mid, hi int) {
	i, j, o := lo, mid, lo
	for i < mid && j < hi {
		if item.Compare(sets[i], sets[j]) <= 0 {
			buf[o] = sets[i]
			i++
		} else {
			buf[o] = sets[j]
			j++
		}
		o++
	}
	for i < mid {
		buf[o] = sets[i]
		i, o = i+1, o+1
	}
	for j < hi {
		buf[o] = sets[j]
		j, o = j+1, o+1
	}
	copy(sets[lo:hi], buf[lo:hi])
}

// fillParallel initializes the probe for sets and inserts every set, CAS-ing
// ids into slots across workers. Duplicate itemsets keep the lowest id —
// the same winner as the sequential first-occurrence rule.
func (f *flatProbe) fillParallel(sets [][]item.Item, workers int) {
	f.init(len(sets))
	n := len(sets)
	const minChunk = 512
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		for i := range sets {
			if f.findItems(sets[i], sets) < 0 {
				f.place(int32(i), sets[i])
			}
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f.placeCAS(int32(i), sets)
			}
		}(lo, hi)
	}
	wg.Wait()
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
func GenParallel(prev [][]item.Item, workers int, hook Hook) [][]item.Item {
	if len(prev) == 0 {
		return nil
	}
	k1 := len(prev[0])
	sets := make([][]item.Item, len(prev))
	copy(sets, prev)
	SortSetsParallel(sets, workers)

	var prune flatProbe
	prune.fillParallel(sets, workers)

	bounds := prefixRunBounds(sets, k1-1, workers)
	nShards := len(bounds) - 1
	outs := make([][][]item.Item, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			done := hook.Begin(s)
			defer done()
			outs[s] = genShard(sets, &prune, k1, bounds[s], bounds[s+1])
		}(s)
	}
	wg.Wait()

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
