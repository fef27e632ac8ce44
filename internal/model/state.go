package model

import (
	"fmt"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/wire"
)

// MiningState is the FUP carry-forward an incremental miner stores alongside
// a snapshot: the log offset the model covers, the full per-item
// ancestor-closure count vector, every candidate counted in the final
// checkpoint's passes with its exact count over the covered prefix — the
// border sets — and every candidate it pruned uncounted, with an upper
// bound on that count. With this state, the next checkpoint re-counts
// candidates over the delta only and rescans the prefix solely for new
// candidates whose carried bounds cannot rule them out.
//
// The state travels in its own snapshot sections (secState, and secBounds
// when there are bounds); snapshots written without them (plain batch
// mines) simply lack the sections, and older readers skip them, so no
// format version bump is needed. A state read without secBounds has nil
// Bounds, which is a valid, merely weaker, carry-forward.
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
	// Bounds[k-2] holds the candidate k-itemsets of the final checkpoint
	// that were pruned without a prefix count, each with an upper bound on
	// its support over the covered prefix, built from exact counts alone.
	// Each level is strictly ascending and shares no set with Levels[k-2].
	Bounds [][]itemset.Counted
}

// validate checks the state against a universe of numItems items: one
// count per item, non-negative offsets, every border and bound level k a
// strictly ascending list of canonical k-itemsets over the universe with
// non-negative counts, and no set both in a border level and its bound
// level. Generation emits each level in that order, and the order rules out
// a set stored twice. Encode and Reader.Model run it through
// Model.Validate, and Reader.State runs it too, because a follower resumes
// from State alone.
func (s *MiningState) validate(numItems int) error {
	if len(s.ItemCounts) != numItems {
		return fmt.Errorf("model: state item counts %d != universe %d", len(s.ItemCounts), numItems)
	}
	if s.LogByte < 0 || s.LogTxns < 0 {
		return fmt.Errorf("model: negative state offset %d/%d", s.LogByte, s.LogTxns)
	}
	for k, level := range s.Levels {
		if err := validLevel("border", level, k+2, numItems); err != nil {
			return err
		}
	}
	for k, level := range s.Bounds {
		if err := validLevel("bound", level, k+2, numItems); err != nil {
			return err
		}
		if k >= len(s.Levels) {
			continue
		}
		border := s.Levels[k]
		for i, j := 0, 0; i < len(border) && j < len(level); {
			switch item.Compare(border[i].Items, level[j].Items) {
			case -1:
				i++
			case 1:
				j++
			default:
				return fmt.Errorf("model: state itemset %v in both the border and the bound level k=%d", level[j].Items, k+2)
			}
		}
	}
	return nil
}

// validLevel checks one state level of k-itemsets over numItems items.
func validLevel(what string, level []itemset.Counted, k, numItems int) error {
	for i, c := range level {
		if len(c.Items) != k {
			return fmt.Errorf("model: state %d-itemset %v stored at %s level k=%d", len(c.Items), c.Items, what, k)
		}
		if !item.IsSorted(c.Items) {
			return fmt.Errorf("model: state itemset %v not canonical", c.Items)
		}
		if c.Items[0] < 0 || int(c.Items[k-1]) >= numItems {
			return fmt.Errorf("model: state itemset %v outside universe [0,%d)", c.Items, numItems)
		}
		if c.Count < 0 {
			return fmt.Errorf("model: state itemset %v has negative count %d", c.Items, c.Count)
		}
		if i > 0 && item.Compare(level[i-1].Items, c.Items) >= 0 {
			return fmt.Errorf("model: state %s level k=%d not strictly ascending at %v", what, k, c.Items)
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
// section). The bounds section is read only beside a state section.
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
			if b, ok := r.sections[secBounds]; ok {
				d := wire.NewDec(b)
				if s.Bounds = readLevels(&d); d.Err() != nil {
					return nil, fmt.Errorf("model: corrupt bounds section: %v", d.Err())
				}
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
