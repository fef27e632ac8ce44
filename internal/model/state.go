package model

import (
	"fmt"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// MiningState is the FUP carry-forward an incremental miner stores alongside
// a snapshot: the log offset the model covers, the full per-item
// ancestor-closure count vector, and every candidate counted in the final
// checkpoint's passes with its exact count over the covered prefix — the
// border sets. With this state, the next checkpoint re-counts candidates
// over the delta only and rescans the prefix solely for candidates that did
// not exist at the prior checkpoint.
//
// The state travels in its own snapshot section (secState); snapshots
// written without it (plain batch mines) simply lack the section, and older
// readers skip it, so no format version bump is needed.
type MiningState struct {
	// LogSeg/LogByte/LogTxns name the stream offset (frame boundary) the
	// model was mined through — stream.Offset, spelled out here so model
	// does not import stream.
	LogSeg  uint64
	LogByte int64
	LogTxns int64
	// ItemCounts[i] is the ancestor-closure support count of item i over
	// the covered prefix, for every item in the universe. Pass 1 of the
	// next checkpoint never touches the prefix because of this vector.
	ItemCounts []int64
	// Levels[k-2] holds every candidate k-itemset counted at the final
	// checkpoint (large or not — the negative border matters as much as the
	// positive one) with its exact prefix count, in the candidate-generation
	// order of that pass. A level may be empty: it records that the pass ran
	// and produced no candidates.
	Levels [][]itemset.Counted
}

// validate checks the state against a universe of numItems items: one
// count per item, non-negative offsets, and every border level k a strictly
// ascending list of canonical k-itemsets over the universe. Generation emits
// each level in that order, and the order rules out a set stored twice.
// Encode and Reader.Model run it through Model.Validate, and Reader.State
// runs it too, because a follower resumes from State alone.
func (s *MiningState) validate(numItems int) error {
	if len(s.ItemCounts) != numItems {
		return fmt.Errorf("model: state item counts %d != universe %d", len(s.ItemCounts), numItems)
	}
	if s.LogByte < 0 || s.LogTxns < 0 {
		return fmt.Errorf("model: negative state offset %d/%d", s.LogByte, s.LogTxns)
	}
	for k, level := range s.Levels {
		for i, c := range level {
			if len(c.Items) != k+2 {
				return fmt.Errorf("model: state %d-itemset %v stored at level k=%d", len(c.Items), c.Items, k+2)
			}
			if !item.IsSorted(c.Items) {
				return fmt.Errorf("model: state itemset %v not canonical", c.Items)
			}
			if c.Items[0] < 0 || int(c.Items[k+1]) >= numItems {
				return fmt.Errorf("model: state itemset %v outside universe [0,%d)", c.Items, numItems)
			}
			if i > 0 && item.Compare(level[i-1].Items, c.Items) >= 0 {
				return fmt.Errorf("model: state level k=%d not strictly ascending at %v", k+2, c.Items)
			}
		}
	}
	return nil
}

// appendState encodes the state section payload.
func appendState(dst []byte, s *MiningState) []byte {
	dst = wire.AppendUvarint(dst, s.LogSeg)
	dst = wire.AppendUvarint(dst, uint64(s.LogByte))
	dst = wire.AppendUvarint(dst, uint64(s.LogTxns))
	dst = wire.AppendCountsAuto(dst, s.ItemCounts)
	return appendLevels(dst, s.Levels)
}

// readState decodes a state section payload of a model over numItems items.
func readState(b []byte, numItems int) (*MiningState, error) {
	d := wire.NewDec(b)
	s := &MiningState{
		LogSeg:     d.U64(),
		LogByte:    d.I64(),
		LogTxns:    d.I64(),
		ItemCounts: d.CountsAuto(numItems),
		Levels:     readLevels(&d),
	}
	return s, d.Err()
}

// State decodes and validates (once) and returns the incremental mining
// state, or nil if the snapshot has none (plain batch mines do not write the
// section).
func (r *Reader) State() (*MiningState, error) {
	if !r.stateDone {
		sec, ok := r.sections[secState]
		if ok {
			tax, err := r.Taxonomy() // the universe the item count vector is indexed by
			if err != nil {
				return nil, err
			}
			s, err := readState(sec, tax.NumItems())
			if err != nil {
				return nil, fmt.Errorf("model: corrupt state section: %v", err)
			}
			if err := s.validate(tax.NumItems()); err != nil {
				return nil, err
			}
			r.state = s
		}
		r.stateDone = true
	}
	return r.state, nil
}
