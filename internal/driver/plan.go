package driver

import (
	"fmt"
	"time"

	"pgarm/internal/metrics"
	"pgarm/internal/wire"
)

// The plan phase's cross-node exchange: replanning from observed skew must be
// identical on every node, but the skew signal (barrier waits, per-node
// bytes) is wall-clock data only the coordinator's telemetry plane holds. So
// at the start of each pass k >= 2 — a point every node reaches iff the run
// continues, since the empty-C_k termination is decided identically
// everywhere — the coordinator broadcasts its latest *complete* skew snapshot
// as one KPlan message, and every node feeds the identical snapshot into
// PlanPass. Floats travel as raw IEEE-754 bits, so the hint (and therefore
// the plan derived from it) is bit-identical across nodes and across
// in-process/multi-process runs.
//
// A pass's complete snapshot exists only after the *next* barrier ingests the
// followers' telemetry, so the hint for pass k describes pass k-2 (nil for
// the first passes). Adaptation therefore trails the signal by one pass —
// the price of keeping the plan deterministic without an extra barrier.

// passPhase labels a pass's phases for error context and the /debug/cluster
// view.
type passPhase uint8

const (
	phaseStartup passPhase = iota
	phasePlan
	phaseExecute
	phaseBarrier
	phaseReplan
	phaseFlush
)

var phaseNames = [...]string{"startup", "plan", "execute", "barrier", "replan", "flush"}

func (p passPhase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// setPhase publishes the protocol position (pass, phase) this node is in.
// Read by the fabric's peer-loss path and the ClusterView, so aborts and
// /debug/cluster name the pass and phase the run died in.
func (n *Node) setPhase(pass int, ph passPhase) {
	n.phaseWord.Store(uint64(pass)<<8 | uint64(ph))
	n.cfg.View.SetPhase(ph.String())
}

// phaseLabel renders the published position, e.g. "pass 3/execute".
func (n *Node) phaseLabel() string {
	w := n.phaseWord.Load()
	pass, ph := int(w>>8), passPhase(w&0xff)
	if pass == 0 {
		return ph.String()
	}
	return fmt.Sprintf("pass %d/%s", pass, ph)
}

// connEndpoint is what a connection-oriented endpoint (TCP fabric, DialMesh)
// adds to cluster.Endpoint: a hook for the protocol position woven into
// peer-loss errors, marking a peer's coming EOF as orderly shutdown, and the
// handshake's clock-offset estimates. Channel endpoints have no connections
// to lose and share one clock, and simply don't implement it.
type connEndpoint interface {
	SetPhase(fn func() string)
	QuiescePeer(peer int)
	ClockOffsets() []time.Duration
}

// exchangeSkewHint runs the plan phase's protocol step for pass k: the
// coordinator broadcasts its latest complete skew snapshot (possibly none)
// and every node returns the identical hint.
func (n *Node) exchangeSkewHint(k int) (*metrics.SkewReport, error) {
	if n.IsCoord() {
		_, err := n.bcast(KPlan, appendSkewHint(wire.AppendUvarint(nil, uint64(k)), n.tel.lastSkew), nil)
		return n.tel.lastSkew, err
	}
	payload, err := n.bcast(KPlan, nil, nil)
	if err != nil {
		return nil, err
	}
	pass, hint, err := decodeSkewHint(payload)
	if err != nil {
		return nil, fmt.Errorf("driver: node %d decode plan hint: %w", n.id, err)
	}
	if pass != k {
		return nil, fmt.Errorf("driver: node %d got plan hint for pass %d, want %d", n.id, pass, k)
	}
	return hint, nil
}

// appendSkewHint encodes an optional SkewReport: a presence byte, then the
// pass, the three ratios as raw IEEE-754 bit patterns (bit-exact across
// nodes) and the straggler (zigzag; may be -1).
func appendSkewHint(dst []byte, s *metrics.SkewReport) []byte {
	if s == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = wire.AppendUvarint(dst, uint64(s.Pass))
	dst = wire.AppendF64(dst, s.BarrierWaitMaxOverMean)
	dst = wire.AppendF64(dst, s.BytesSentCV)
	dst = wire.AppendF64(dst, s.BlocksScannedCV)
	return wire.AppendZig(dst, int64(s.Straggler))
}

// decodeSkewHint decodes a KPlan payload: the pass the hint is for, then the
// optional snapshot.
func decodeSkewHint(p []byte) (int, *metrics.SkewReport, error) {
	d := wire.NewDec(p)
	pass := d.Int()
	var s *metrics.SkewReport
	switch present := d.Byte(); present {
	case 0:
	case 1:
		s = &metrics.SkewReport{
			Pass:                   d.Int(),
			BarrierWaitMaxOverMean: d.F64(),
			BytesSentCV:            d.F64(),
			BlocksScannedCV:        d.F64(),
			Straggler:              int(d.Zig()),
		}
	default:
		d.Fail("driver: bad plan-hint presence byte %d", present)
	}
	if err := d.Done(); err != nil {
		return 0, nil, err
	}
	return pass, s, nil
}
