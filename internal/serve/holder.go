package serve

import "sync/atomic"

// Holder publishes the live Index to concurrent readers and lets a reloader
// swap in a replacement atomically. Readers pin the index once per request
// (Get or Current) and keep using it for the whole request; because an Index
// is immutable, in-flight requests against the old snapshot finish untouched
// while new requests see the new one — the zero-downtime reload contract.
type Holder struct {
	p atomic.Pointer[published]
}

// published is one swap: the index and its generation, read with one load
// so a reply never pairs one snapshot's index with another's generation.
type published struct {
	ix  *Index
	gen int64
}

// NewHolder returns a holder serving ix (may be nil until the first Swap).
func NewHolder(ix *Index) *Holder {
	h := &Holder{}
	if ix != nil {
		h.Swap(ix)
	}
	return h
}

// Get returns the live index, or nil when nothing is loaded yet.
func (h *Holder) Get() *Index {
	ix, _ := h.Current()
	return ix
}

// Current returns the live index and its generation, the number of swaps
// that published it (nil, 0 when nothing is loaded yet). The generation
// participates in cache keys, so stale cached results can never be served
// against a new snapshot.
func (h *Holder) Current() (*Index, int64) {
	if p := h.p.Load(); p != nil {
		return p.ix, p.gen
	}
	return nil, 0
}

// Swap atomically publishes ix under the next generation and returns that
// generation.
func (h *Holder) Swap(ix *Index) int64 {
	for {
		old := h.p.Load()
		next := &published{ix: ix, gen: 1}
		if old != nil {
			next.gen = old.gen + 1
		}
		if h.p.CompareAndSwap(old, next) {
			return next.gen
		}
	}
}
