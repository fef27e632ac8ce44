package driver

import (
	"fmt"
	"strconv"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/txn"
)

// kindNames maps the mining protocol's message kinds to stable display names
// (index = kind value).
var kindNames = [...]string{"", "size", "counts1", "data", "done", "local-large", "dup-counts", "large", "telemetry", "plan", "cond-base"}

func kindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

// kindDeltas converts the per-kind window delta (cur − base) into the
// metrics form, naming each kind.
func kindDeltas(cur, base []cluster.KindStat) []metrics.KindIO {
	if len(cur) == 0 {
		return nil
	}
	out := make([]metrics.KindIO, len(cur))
	for k := range cur {
		d := cur[k]
		if k < len(base) {
			d = d.Sub(base[k])
		}
		out[k] = metrics.KindIO{
			Kind: uint8(k), Name: kindName(uint8(k)),
			MsgsSent: d.MsgsSent, MsgsReceived: d.MsgsRecv,
			BytesSent: d.BytesSent, BytesReceived: d.BytesRecv,
		}
	}
	return out
}

// capturePassComm closes the current pass's communication window: the fabric
// counters are monotonic, so the pass's traffic is the delta against the
// snapshot taken at the previous pass's end. The windows tile the whole run
// (the first window opens at zero, before the size exchange), so summed over
// all passes they reconcile exactly with the endpoint's lifetime totals.
func (n *Node) capturePassComm() {
	n.addCommWindow(&n.cur) // n.cur's communication counters are still zero
	// The count-support data plane (Table 6's sent side) is exactly the
	// KData slice of this window: data batches are only sent during the
	// node's own count phase, never across a pass boundary. The FP-Growth
	// engine's conditional-base stream (KCondBase) is the same plane under a
	// different kind, so it folds in too.
	if int(KData) < len(n.cur.ByKind) {
		n.cur.DataBytesSent = n.cur.ByKind[KData].BytesSent
	}
	if int(KCondBase) < len(n.cur.ByKind) {
		n.cur.DataBytesSent += n.cur.ByKind[KCondBase].BytesSent
	}
}

// addCommWindow adds the fabric traffic since the previous window closed to
// st and advances the window base.
func (n *Node) addCommWindow(st *metrics.NodeStats) {
	now, kinds := n.ep.Stats(), n.ep.KindStats()
	d := now.Sub(n.base)
	st.BytesSent += d.BytesSent
	st.BytesReceived += d.BytesRecv
	st.MsgsSent += d.MsgsSent
	st.MsgsReceived += d.MsgsRecv
	st.ByKind = mergeKindIO(st.ByKind, kindDeltas(kinds, n.baseKind))
	n.base, n.baseKind = now, kinds
}

// foldFlushWindow folds the traffic of the run-end telemetry flush — which
// happens after the last pass window closed — into the last pass window, so
// the per-pass windows keep tiling the endpoint's lifetime totals exactly
// (ReconcileEndpoints stays balanced with telemetry traffic included).
func (n *Node) foldFlushWindow() {
	if len(n.perPass) > 0 {
		n.addCommWindow(&n.perPass[len(n.perPass)-1])
	}
}

// mergeKindIO adds the per-kind deltas of add into dst element-wise,
// extending dst when add covers kinds dst has not seen (the telemetry kind
// first appears mid-run).
func mergeKindIO(dst, add []metrics.KindIO) []metrics.KindIO {
	if len(add) > len(dst) {
		grown := make([]metrics.KindIO, len(add))
		copy(grown, dst)
		for k := len(dst); k < len(add); k++ {
			grown[k] = metrics.KindIO{Kind: uint8(k), Name: kindName(uint8(k))}
		}
		dst = grown
	}
	for k := range add {
		dst[k].MsgsSent += add[k].MsgsSent
		dst[k].MsgsReceived += add[k].MsgsReceived
		dst[k].BytesSent += add[k].BytesSent
		dst[k].BytesReceived += add[k].BytesReceived
	}
	return dst
}

// EndpointTotals snapshots one node's lifetime fabric counters for RunStats.
func EndpointTotals(id int, ep cluster.Endpoint) metrics.EndpointTotals {
	st := ep.Stats()
	return metrics.EndpointTotals{
		Node:          id,
		MsgsSent:      st.MsgsSent,
		MsgsReceived:  st.MsgsRecv,
		BytesSent:     st.BytesSent,
		BytesReceived: st.BytesRecv,
		ByKind:        kindDeltas(ep.KindStats(), nil),
	}
}

// nodeInstruments are one node's live registry series. The zero value (no
// registry configured) is fully inert.
type nodeInstruments struct {
	pass          *obs.Gauge
	candidates    *obs.Gauge
	txns          *obs.Counter
	probes        *obs.Counter
	increments    *obs.Counter
	itemsSent     *obs.Counter
	blocksScanned *obs.Counter
	blocksSkipped *obs.Counter
	bytesDecoded  *obs.Counter
	scanSec       *obs.Histogram
	barrierSec    *obs.Histogram
}

func newNodeInstruments(r *obs.Registry, node int) nodeInstruments {
	if r == nil {
		return nodeInstruments{}
	}
	l := obs.L("node", strconv.Itoa(node))
	return nodeInstruments{
		pass:          r.Gauge("pgarm_pass", "Pass currently executing.", l),
		candidates:    r.Gauge("pgarm_pass_candidates", "Candidate itemsets |C_k| of the current pass.", l),
		txns:          r.Counter("pgarm_txns_scanned_total", "Transactions scanned across all passes.", l),
		probes:        r.Counter("pgarm_probes_total", "Candidate-table probes.", l),
		increments:    r.Counter("pgarm_increments_total", "Support-count increments applied.", l),
		itemsSent:     r.Counter("pgarm_items_sent_total", "Items shipped to other nodes.", l),
		blocksScanned: r.Counter("pgarm_blocks_scanned_total", "Columnar partition blocks decoded during local scans.", l),
		blocksSkipped: r.Counter("pgarm_blocks_skipped_total", "Customer sequences the sequence miners' root-mask test ruled out before matching.", l),
		bytesDecoded:  r.Counter("pgarm_bytes_decoded_total", "Encoded bytes of decoded columnar blocks.", l),
		scanSec:       r.Histogram("pgarm_scan_shard_seconds", "Per-shard local scan wall time.", nil, l),
		barrierSec:    r.Histogram("pgarm_barrier_wait_seconds", "Per-pass L_k barrier wait.", nil, l),
	}
}

func (ins *nodeInstruments) startPass(k, candidates int) {
	ins.pass.Set(int64(k))
	ins.candidates.Set(int64(candidates))
}

func (ins *nodeInstruments) endPass(cur *metrics.NodeStats) {
	ins.txns.Add(cur.TxnsScanned)
	ins.probes.Add(cur.Probes)
	ins.increments.Add(cur.Increments)
	ins.itemsSent.Add(cur.ItemsSent)
	ins.blocksScanned.Add(cur.BlocksScanned)
	ins.blocksSkipped.Add(cur.BlocksSkipped)
	ins.bytesDecoded.Add(cur.BytesDecoded)
	ins.barrierSec.Observe(cur.BarrierWait.Seconds())
}

// ShardObs carries the per-shard observability hooks of one sharded scan;
// the zero value disables them at no cost.
type ShardObs struct {
	tr   *obs.Tracer
	hist *obs.Histogram
	node int
	name string
}

// ShardObs builds the hooks for one of this node's scans. name labels the
// shard spans ("scan" for pure local scans, "count" when the scan also
// routes count-support units).
func (n *Node) ShardObs(name string) ShardObs {
	if n.tr == nil && n.ins.scanSec == nil {
		return ShardObs{}
	}
	return ShardObs{tr: n.tr, hist: n.ins.scanSec, node: n.id, name: name}
}

// BoundaryObs builds tracer-only shard hooks for a pass-boundary build
// (candidate generation, partition planning). Unlike ShardObs it carries no
// scan histogram, so boundary sub-spans never feed pgarm_scan_shard_seconds.
// name should differ from the lane-0 phase span ("generate shard",
// "partition shard") so span rollups don't double-count the phase.
func (n *Node) BoundaryObs(name string) ShardObs {
	if !n.tr.Enabled() {
		return ShardObs{}
	}
	return ShardObs{tr: n.tr, node: n.id, name: name}
}

// Hook adapts the observer to the hook shape the parallel pass-boundary
// builders take (itemset.Hook): worker w's sub-span opens on lane w+1, lane 0
// being the node driver. An inert observer returns nil, which the builders
// treat as free.
func (so ShardObs) Hook() func(w int) func() {
	if so.tr == nil && so.hist == nil {
		return nil
	}
	return func(w int) func() { return so.begin(w+1, w) }
}

// begin opens the shard's span and timer; the returned func closes them.
// lane 0 is the node driver itself (inline scan, nesting under the pass
// span); worker shards live on lanes 1..W so overlapping workers get their
// own trace rows.
func (so ShardObs) begin(lane, shard int) func() {
	if so.tr == nil && so.hist == nil {
		return func() {}
	}
	start := time.Now()
	var sp obs.Span
	if so.tr.Enabled() {
		if lane > 0 {
			so.tr.SetThreadName(so.node, lane, fmt.Sprintf("scan w%d", shard))
		}
		sp = so.tr.Begin(so.node, lane, so.name)
	}
	return func() {
		if so.hist != nil {
			so.hist.Observe(time.Since(start).Seconds())
		}
		sp.End()
	}
}

// beginBlocks opens the block-scan sub-span nested inside a shard's span on
// the same lane; on close it annotates the span with the shard's block
// counters, so traces show per-worker decode volume.
func (so ShardObs) beginBlocks(lane int, st *txn.ScanStats) func() {
	if !so.tr.Enabled() {
		return func() {}
	}
	sp := so.tr.Begin(so.node, lane, "blocks")
	return func() {
		sp.Arg("blocks_scanned", st.BlocksScanned)
		sp.Arg("bytes_decoded", st.BytesDecoded)
		sp.End()
	}
}

// beginRecv opens the count-phase receiver span on its own lane (W+1).
func (n *Node) beginRecv() obs.Span {
	if !n.tr.Enabled() {
		return obs.Span{}
	}
	lane := n.cfg.workers() + 1
	n.tr.SetThreadName(n.id, lane, "recv")
	return n.tr.Begin(n.id, lane, "recv")
}

// emitProgress fires the coordinator's pass callbacks; a no-op elsewhere.
func (n *Node) emitProgress(pass, candidates, large int, elapsed time.Duration) {
	if !n.IsCoord() || n.cfg.OnPass == nil {
		return
	}
	n.cfg.OnPass(PassProgress{
		Pass:       pass,
		Candidates: candidates,
		Large:      large,
		Elapsed:    elapsed,
		BytesIn:    n.cur.BytesReceived,
		BytesOut:   n.cur.BytesSent,
	})
}
