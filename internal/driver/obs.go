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

// addKinds adds the per-kind window cur − base into dst element-wise, naming
// and appending the kinds dst has not seen (the telemetry kind first appears
// mid-run). A nil base is a window that opened at zero.
func addKinds(dst []metrics.KindIO, cur, base []cluster.Traffic) []metrics.KindIO {
	for k := len(dst); k < len(cur); k++ {
		dst = append(dst, metrics.KindIO{Kind: uint8(k), Name: kindName(uint8(k))})
	}
	for k, t := range cur {
		if k < len(base) {
			t = t.Sub(base[k])
		}
		dst[k].Traffic = dst[k].Traffic.Add(t)
	}
	return dst
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
	st.Traffic = st.Traffic.Add(now.Sub(n.base))
	st.ByKind = addKinds(st.ByKind, kinds, n.baseKind)
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

// EndpointTotals snapshots one node's lifetime fabric counters for RunStats.
func EndpointTotals(id int, ep cluster.Endpoint) metrics.EndpointTotals {
	return metrics.EndpointTotals{Node: id, Traffic: ep.Stats(), ByKind: addKinds(nil, ep.KindStats(), nil)}
}

// nodeInstruments are one node's live registry series. The zero value (no
// registry configured) is fully inert.
type nodeInstruments struct {
	pass       *obs.Gauge
	candidates *obs.Gauge
	scanSec    *obs.Histogram
	// perPass[i], when non-nil, feeds the series metrics.Counters[i] names
	// with that counter's value as each pass closes.
	perPass [len(metrics.Counters)]func(v int64)
}

func newNodeInstruments(r *obs.Registry, node int) nodeInstruments {
	if r == nil {
		return nodeInstruments{}
	}
	l := obs.L("node", strconv.Itoa(node))
	ins := nodeInstruments{
		pass:       r.Gauge("pgarm_pass", "Pass currently executing.", l),
		candidates: r.Gauge("pgarm_pass_candidates", "Candidate itemsets |C_k| of the current pass.", l),
		scanSec:    r.Histogram("pgarm_scan_shard_seconds", "Per-shard local scan wall time.", nil, l),
	}
	for i, c := range metrics.Counters {
		if c.Series == "" {
			continue
		}
		if c.Duration {
			h := r.Histogram(c.Series, c.Help, nil, l)
			ins.perPass[i] = func(v int64) { h.Observe(time.Duration(v).Seconds()) }
		} else {
			ins.perPass[i] = r.Counter(c.Series, c.Help, l).Add
		}
	}
	return ins
}

func (ins *nodeInstruments) startPass(k, candidates int) {
	ins.pass.Set(int64(k))
	ins.candidates.Set(int64(candidates))
}

func (ins *nodeInstruments) endPass(cur *metrics.NodeStats) {
	for i, feed := range ins.perPass {
		if feed != nil {
			feed(*metrics.Counters[i].At(cur))
		}
	}
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
