package metrics

import "time"

// CostModel converts a node's exact work counters into simulated
// shared-nothing execution time. The reproduction host is a single box (and
// possibly a single core), so goroutine wall-clock cannot exhibit the
// paper's parallel speedup; instead each pass's time is modeled as the
// *slowest node's* work — precisely the quantity a shared-nothing barrier
// waits for on the SP-2 — computed from deterministic counters (probes,
// bytes moved, transactions scanned).
//
// The constants are calibrated to mid-90s MPP ratios: a hash-table probe
// costs on the order of a microsecond of POWER2 time; every *item* that
// crosses the interconnect carries several microseconds of software
// overhead on each end (marshalling, message handling — the reason the
// paper accounts communication in items sent, e.g. HPGM's 18 vs H-HPGM's 3
// in Examples 1-2), on top of a small per-byte bandwidth charge; and a
// transaction carries fixed parse/extend overhead. Absolute values only
// scale the curves; every comparison the paper makes is a ratio.
type CostModel struct {
	ProbePerOp time.Duration // hash-table probe + possible increment
	PerItem    time.Duration // software cost of one item shipped, paid by each end
	PerByte    time.Duration // fabric payload byte, sent or received (bandwidth)
	PerTxn     time.Duration // local-disk read + ancestor handling per transaction scan
}

// DefaultCostModel returns the calibration used by the experiment harness.
func DefaultCostModel() CostModel {
	return CostModel{
		ProbePerOp: 1 * time.Microsecond,
		PerItem:    5 * time.Microsecond,
		PerByte:    30 * time.Nanosecond,
		PerTxn:     5 * time.Microsecond,
	}
}

// NodeTime models one node's busy time in a pass. Only count-support
// data-plane traffic is charged: the pass-end L_k gather/broadcast is
// byte-identical across all algorithms of a comparison (same L_k), but its
// size does not shrink with the scaled-down database, so charging it would
// let a scale artifact — not an algorithmic difference — dominate small-
// scale reproductions.
func (m CostModel) NodeTime(ns NodeStats) time.Duration {
	d := time.Duration(ns.Probes) * m.ProbePerOp
	d += time.Duration(ns.ItemsSent+ns.ItemsReceived) * m.PerItem
	d += time.Duration(ns.DataBytesSent+ns.DataBytesReceived) * m.PerByte
	d += time.Duration(ns.TxnsScanned) * m.PerTxn
	return d
}

// PassTime models the pass's parallel execution time: the slowest node
// gates the barrier.
func (m CostModel) PassTime(ps PassStats) time.Duration {
	var max time.Duration
	for _, ns := range ps.Nodes {
		if t := m.NodeTime(ns); t > max {
			max = t
		}
	}
	return max
}
