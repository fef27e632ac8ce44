package itemset

import "pgarm/internal/item"

// Subsets walks the k-subsets of one canonical itemset in lexicographic
// order, carrying per depth the Hash state of the subset's prefix, so a step
// re-hashes only the depths that changed. Most steps move only the last
// position: such a subset costs one item of Hash. It is the one subset
// enumerator, with two callers: HPGM's sender hashes every subset of an
// extended transaction to find its owner and encodes only those owned
// elsewhere, straight into the owner's batch; rule derivation
// (rules.Derive) walks every antecedent of a large itemset.
//
//	for ok := s.Reset(txn, k); ok; ok = s.Next() { ... s.Hash() ... s.Items() ... }
//
// The zero value is ready to use. A walker grows once to the largest k it
// sees and then allocates nothing; one walker serves one goroutine.
type Subsets struct {
	txn []item.Item
	k   int
	idx []int       // idx[d]: the txn position chosen at depth d
	sub []item.Item // the current subset
	h   []uint64    // h[d]: the Hash state after sub[:d]
}

// Reset starts a walk over the k-subsets of txn, positioned at the first
// one. It reports false, and the walk is empty, when k is outside [1,
// len(txn)]. txn is read, not copied, until the next Reset.
func (s *Subsets) Reset(txn []item.Item, k int) bool {
	if k <= 0 || k > len(txn) {
		return false
	}
	if k != s.k {
		if cap(s.idx) < k {
			s.idx = make([]int, k)
			s.sub = make([]item.Item, k)
			s.h = make([]uint64, k+1)
		}
		s.idx, s.sub, s.h = s.idx[:k], s.sub[:k], s.h[:k+1]
		s.k = k
		s.h[0] = hashOffset
	}
	s.txn = txn
	for d := range s.idx {
		s.idx[d] = d
	}
	s.fill(0)
	return true
}

// Next advances to the next subset and reports false once the walk is done.
func (s *Subsets) Next() bool {
	n, k := len(s.txn), s.k
	if i := s.idx[k-1] + 1; i < n {
		// The common step: only the last position moves.
		x := s.txn[i]
		s.idx[k-1], s.sub[k-1] = i, x
		s.h[k] = hashStep(s.h[k-1], x)
		return true
	}
	// Bump the rightmost earlier position that still has headroom, then
	// reset every position after it.
	d := k - 2
	for d >= 0 && s.idx[d] == n-k+d {
		d--
	}
	if d < 0 {
		return false
	}
	s.idx[d]++
	for j := d + 1; j < k; j++ {
		s.idx[j] = s.idx[j-1] + 1
	}
	s.fill(d)
	return true
}

// fill recomputes the subset and its hash states from depth d on.
func (s *Subsets) fill(d int) {
	for j := d; j < s.k; j++ {
		x := s.txn[s.idx[j]]
		s.sub[j] = x
		s.h[j+1] = hashStep(s.h[j], x)
	}
}

// Items returns the current subset. Shared scratch: valid until the next
// step, and the caller must not modify it.
func (s *Subsets) Items() []item.Item { return s.sub }

// Hash returns Hash(Items()).
func (s *Subsets) Hash() uint64 { return s.h[s.k] }
