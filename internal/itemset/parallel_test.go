package itemset

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pgarm/internal/item"
)

// randomLevel builds a random duplicate-free "L_{k-1}": sets of equal length
// k1 drawn from a small universe so join prefixes collide often.
func randomLevel(rng *rand.Rand, k1, n, universe int) [][]item.Item {
	seen := make(map[string]bool)
	var out [][]item.Item
	for len(out) < n {
		s := make([]item.Item, 0, k1)
		for len(s) < k1 {
			x := item.Item(rng.Intn(universe))
			if !item.Contains(s, x) {
				s = append(s, x)
			}
		}
		item.Sort(s)
		key := Key(s)
		if seen[key] {
			n-- // universe too small to keep trying forever
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// TestGenParallelMatchesGen is the bit-identity property the parallel pass
// boundary must keep: for random L_{k-1} and every worker count, GenParallel
// produces exactly Gen's output, order included.
func TestGenParallelMatchesGen(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k1 := 1 + rng.Intn(4) // 1..4: includes the unsplittable empty-prefix case
		prev := randomLevel(rng, k1, 10+rng.Intn(120), 4+rng.Intn(20))
		want := Gen(prev)
		// Production callers hand over a canonically ordered level, which is
		// read in place; random order takes the copy-and-sort fallback.
		sorted := append([][]item.Item(nil), prev...)
		SortSets(sorted)
		for _, w := range []int{1, 2, 4, 8} {
			for _, in := range [][][]item.Item{prev, sorted} {
				before := append([][]item.Item(nil), in...)
				got := GenParallel(in, w, nil)
				if !reflect.DeepEqual(got, want) {
					t.Logf("seed=%d k1=%d workers=%d: got %d candidates, want %d",
						seed, k1, w, len(got), len(want))
					return false
				}
				if !reflect.DeepEqual(in, before) {
					t.Logf("seed=%d k1=%d workers=%d: input reordered", seed, k1, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexParallelMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := randomLevel(rng, 3, 4000, 40)
	// Inject duplicates: parallel fill must keep the first occurrence's id.
	sets = append(sets, sets[17], sets[42])
	seq := BuildIndex(sets)
	for _, w := range []int{1, 2, 4, 8} {
		par := BuildIndexParallel(sets, w)
		for _, s := range sets {
			if got, want := par.Lookup(s), seq.Lookup(s); got != want {
				t.Fatalf("workers=%d Lookup(%v) = %d, want %d", w, s, got, want)
			}
		}
		if par.Lookup([]item.Item{1000, 1001, 1002}) != -1 {
			t.Fatalf("workers=%d: absent set found", w)
		}
	}
}

// TestProbeSetCollisions is the hash-collision regression test for the
// open-addressed prune set: sets landing in the same slot chain must stay
// distinguishable, and absent sets sharing the chain must miss.
func TestProbeSetCollisions(t *testing.T) {
	// Collect 2-itemsets {0, x} that collide in the initial 16-slot table.
	byBucket := make(map[uint64][][]item.Item)
	for x := item.Item(1); x < 400; x++ {
		s := []item.Item{0, x}
		b := flatHash(s) & 15
		byBucket[b] = append(byBucket[b], s)
	}
	var sets [][]item.Item
	var bucket uint64
	for b, group := range byBucket {
		if len(group) >= 6 {
			sets, bucket = group[:4], b
			break
		}
	}
	if sets == nil {
		t.Fatal("no colliding bucket found (hash function changed?)")
	}
	for _, w := range []int{1, 4} {
		var f flatProbe
		f.fillParallel(sets, w)
		for i, s := range sets {
			if got := f.findItems(s, sets); got != int32(i) {
				t.Fatalf("workers=%d: colliding set %v resolved to id %d, want %d", w, s, got, i)
			}
		}
		// Absent sets from the same slot chain must not false-positive.
		absent := byBucket[bucket][4:]
		for _, s := range absent {
			if f.findItems(s, sets) != -1 {
				t.Fatalf("workers=%d: absent colliding set %v reported present", w, s)
			}
		}
	}
}

// TestGenParallelArenaShape pins the allocation contract: every candidate is
// a full slice (len == cap) of a shard arena, not a private allocation.
func TestGenParallelArenaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prev := randomLevel(rng, 2, 200, 12)
	for _, c := range GenParallel(prev, 4, nil) {
		if cap(c) != len(c) {
			t.Fatalf("candidate %v: cap %d != len %d (not arena-sliced)", c, cap(c), len(c))
		}
	}
}

// TestFan pins the fan-out contract every worker pool in the miners is built
// on: every worker runs exactly once, one worker runs on the caller's
// goroutine, the first error in worker order wins whatever order the workers
// finish in, and a worker's panic is that worker's error.
func TestFan(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5} {
		var ran atomic.Int64
		hooked := make([]atomic.Int64, max(workers, 1))
		hook := func(w int) func() {
			hooked[w].Add(1)
			return func() { hooked[w].Add(1) }
		}
		if err := Fan("test", workers, hook, func(w int) error {
			ran.Add(1 << (8 * w))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var want int64
		for w := 0; w < max(workers, 1); w++ {
			want += 1 << (8 * w)
			if got := hooked[w].Load(); got != 2 {
				t.Errorf("workers=%d: hook of worker %d fired %d times, want open+close", workers, w, got)
			}
		}
		if ran.Load() != want {
			t.Errorf("workers=%d: run mask %x, want %x", workers, ran.Load(), want)
		}
	}

	// Inline at one worker: a value only the calling goroutine may touch.
	inline := 0
	if err := Fan("test", 1, nil, func(int) error { inline++; return nil }); err != nil || inline != 1 {
		t.Errorf("one worker: ran %d times, err %v", inline, err)
	}

	// Worker 3 fails first in time, worker 1 first in order.
	release := make(chan struct{})
	err := Fan("test", 4, nil, func(w int) error {
		switch w {
		case 3:
			defer close(release)
			return errors.New("late worker")
		case 1:
			<-release
			return errors.New("early worker")
		}
		return nil
	})
	if err == nil || err.Error() != "early worker" {
		t.Errorf("got %v, want the error of the lowest failing worker", err)
	}

	for _, workers := range []int{1, 3} {
		failing := workers - 1
		err := Fan("grind", workers, nil, func(w int) error {
			if w == failing {
				panic("boom")
			}
			return nil
		})
		want := fmt.Sprintf("grind worker %d panicked: boom", failing)
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: got %v, want %q", workers, err, want)
		}
	}
}

// TestMustFanRepanics: with no error return, a worker's panic resurfaces on
// the calling goroutine — ForShards included — still naming the worker.
func TestMustFanRepanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				err, _ := r.(error)
				if err == nil || !strings.Contains(err.Error(), "shard worker 0 panicked: boom") {
					t.Errorf("workers=%d: recovered %v", workers, r)
				}
			}()
			ForShards(100, workers, nil, func(w, lo, hi int) {
				if w == 0 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: ForShards returned", workers)
		}()
	}
}

// TestGoReportsPanic: the one non-fork-join worker delivers its error, or its
// panic as an error, on its done channel.
func TestGoReportsPanic(t *testing.T) {
	done := make(chan error, 1)
	Go("recv", done, func() error { return errors.New("plain") })
	if err := <-done; err == nil || err.Error() != "plain" {
		t.Errorf("got %v", err)
	}
	Go("recv", done, func() error { panic("boom") })
	if err := <-done; err == nil || !strings.Contains(err.Error(), "recv worker 0 panicked: boom") {
		t.Errorf("got %v", err)
	}
}
