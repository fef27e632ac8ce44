package itemset

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pgarm/internal/item"
)

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
	tab := NewTable(FromSlices(sets))
	for i, s := range sets {
		if got := tab.Lookup(s); got != int32(i) {
			t.Fatalf("colliding set %v resolved to id %d, want %d", s, got, i)
		}
	}
	// Absent sets from the same slot chain must not false-positive.
	for _, s := range byBucket[bucket][4:] {
		if tab.Lookup(s) != -1 {
			t.Fatalf("absent colliding set %v reported present", s)
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
