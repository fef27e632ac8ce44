package driver

import (
	"fmt"

	"pgarm/internal/cluster"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/wire"
)

// The cluster telemetry plane: followers ship their completed-pass stats and
// span batches to the coordinator as KTelemetry messages, piggybacked on the
// barriers the protocol already has. The coordinator merges them into one
// cluster-wide view — live skew gauges and /debug/cluster during the run, a
// merged Chrome trace and per-pass SkewReports after it.
//
// Message schedule (all deterministic, so every node agrees on the count):
//
//   - at each pass-k barrier (k >= 2), every follower sends one KTelemetry
//     right after its KDupCounts, carrying the pass windows completed since
//     its previous batch (normally just pass k-1) and the spans recorded
//     since its previous export;
//   - after the protocol ends (every termination path — empty F_1, empty
//     C_k, empty F_k, MaxK — is decided identically on all nodes), every
//     follower sends one final KTelemetry with the remaining pass windows,
//     remaining spans and a snapshot of its endpoint lifetime totals; the
//     coordinator receives exactly numPeers of them.
//
// Exact accounting is preserved on both sides of the plane:
//
//   - barrier batches are sent before capturePassComm closes the pass
//     window, so their bytes land inside the window like any other barrier
//     traffic;
//   - the final batch is sent after the last window closed, so every node
//     folds its flush-window delta into its last pass window
//     (foldFlushWindow) — the windows keep tiling the endpoint's lifetime
//     totals exactly;
//   - the totals snapshot a follower ships is taken before the flush send,
//     and the pass windows it shipped tile to exactly that snapshot, so the
//     coordinator's merged RunStats reconciles too (the flush message itself
//     belongs to neither view's totals — it is accounted only in the
//     follower's local post-fold stats).
//
// Span batches also carry the follower's half of a clock exchange, so the
// merged trace needs no handshake of its own. Every batch a follower ships
// is a reply to the coordinator's latest bcast: the coordinator stamps each
// bcast's send to a peer (t1, in bcast) and each batch's dequeue (t4, in
// gather); the follower stamps the bcast's arrival (t2) and the batch's send
// (t3). The coordinator ingests a batch before its next bcast, so t1 and t2
// always name the same message. NTP's rule turns the four stamps into an
// offset and a delay (see peerClock.observe). The coordinator holds remote
// spans until the run ends and then rebases each follower's by the offset
// of its least-delay sample of the whole run (recordRemoteSpans).
const telemetryVersion = 3

// telemetryBatch is the decoded form of one KTelemetry payload.
type telemetryBatch struct {
	final     bool
	sentAt    int64 // t3: the send, on the sender's tracer clock (0 = no spans)
	bcastAt   int64 // t2: the latest bcast's arrival there (with sentAt only)
	dropped   int64 // sender's cumulative dropped-span count
	firstPass int   // 1-based pass number of passes[0]
	passes    []metrics.NodeStats
	tracks    []obs.TrackName
	spans     []obs.SpanRecord
	totals    *metrics.EndpointTotals // final batches only
}

// telemetryState is the per-node state of the plane: ship cursors on
// followers, the ingested cluster view on the coordinator.
type telemetryState struct {
	shipped  int   // perPass entries already shipped
	spanMark int   // tracer export watermark
	bcastAt  int64 // t2: when the latest bcast arrived, on the tracer clock

	// Coordinator: ingested remote pass windows ([peer][passIdx]), final
	// endpoint totals, last cumulative dropped count per peer, the clock
	// exchange with each peer and the spans awaiting its final offset, the
	// next pass index awaiting a complete skew snapshot, and the skew
	// gauges. newNode sizes the per-peer slices.
	remote   [][]metrics.NodeStats
	totals   []*metrics.EndpointTotals
	dropped  []int64
	clocks   []peerClock
	held     [][]obs.SpanRecord
	skewNext int
	gauges   skewGauges
}

// peerClock is the coordinator's clock exchange with one follower, on the
// coordinator's tracer clock: when its latest bcast went to the peer (t1),
// when the peer's latest batch was dequeued (t4), and the sample with the
// least delay so far.
type peerClock struct {
	sent, recv int64
	best       clockSample
	ok         bool
}

// clockSample is one round trip reduced to the follower's clock offset
// (positive: its tracer clock reads ahead of the coordinator's) and the
// delay the round trip spent in transit and in queues.
type clockSample struct{ offset, delay int64 }

// observe folds the follower's stamps of one round trip (t2, t3) into the
// estimate. A sample's offset errs by half the asymmetry of its two legs,
// at most half its delay, and a queue on either leg adds all of its wait to
// the delay: the least-delay sample is the best bounded one.
func (c *peerClock) observe(t2, t3 int64) {
	s := clockSample{
		offset: ((t2 - c.sent) + (t3 - c.recv)) / 2,
		delay:  (c.recv - c.sent) - (t3 - t2),
	}
	if !c.ok || s.delay < c.best.delay {
		c.best, c.ok = s, true
	}
}

// recordRemoteSpans re-records every span the followers shipped on the
// coordinator's tracer, on its clock: a remote span at s happened at
// s-offset here. One offset per follower, that of its least-delay sample of
// the run, keeps each follower's spans in the order its own clock put them.
func (n *Node) recordRemoteSpans() {
	for node, spans := range n.tel.held {
		offset := n.tel.clocks[node].best.offset
		for _, sp := range spans {
			sp.Node = int32(node)
			sp.Start -= offset
			n.tr.Record(sp)
		}
		n.tel.held[node] = nil
	}
}

// shipTelemetry encodes and sends this follower's batch: pass windows
// completed since the last batch, plus (in per-process runs) the spans
// recorded since the last export and the clock stamps t2 and t3. final
// batches add the endpoint-totals snapshot, taken before the send so the
// shipped windows tile to it exactly.
func (n *Node) shipTelemetry(final bool) error {
	b := telemetryBatch{
		final:     final,
		firstPass: n.tel.shipped + 1,
		passes:    n.perPass[n.tel.shipped:],
	}
	n.tel.shipped = len(n.perPass)
	if n.tr.Enabled() && !n.sharedObs {
		b.dropped = n.tr.Dropped()
		b.tracks = n.tr.Tracks()
		b.spans, n.tel.spanMark = n.tr.ExportSince(n.tel.spanMark)
		// The tracer started before the run, so its clock is past 0 here.
		b.bcastAt, b.sentAt = n.tel.bcastAt, n.tr.Now()
	}
	if final {
		t := EndpointTotals(n.id, n.ep)
		b.totals = &t
	}
	return n.ep.Send(0, KTelemetry, appendTelemetry(nil, &b))
}

// ingestTelemetry merges one follower batch into the coordinator's view:
// pass windows into tel.remote, the clock stamps into the sender's offset
// estimate, track names into the tracer and spans into tel.held, dropped-count
// deltas into the tracer's tally, totals into tel.totals — then advances the
// live skew snapshot. Every record lands on the sender's track group: a
// batch names no node, so it cannot write to another's.
func (n *Node) ingestTelemetry(m cluster.Message) error {
	b, err := decodeTelemetry(m.Payload)
	cluster.Release(m.Payload)
	if err != nil {
		return fmt.Errorf("driver: decode telemetry from node %d: %w", m.From, err)
	}
	t := &n.tel
	node := m.From // a peer's rank: gather checked it
	if b.firstPass != len(t.remote[node])+1 {
		return fmt.Errorf("driver: telemetry from node %d starts at pass %d, want %d",
			node, b.firstPass, len(t.remote[node])+1)
	}
	for _, ps := range b.passes {
		ps.Node = node
		t.remote[node] = append(t.remote[node], ps)
	}

	if b.sentAt != 0 && n.tr.Enabled() && !n.sharedObs {
		t.clocks[node].observe(b.bcastAt, b.sentAt)
		for _, tr := range b.tracks {
			n.tr.SetThreadName(node, int(tr.Lane), tr.Name)
		}
		t.held[node] = append(t.held[node], b.spans...)
	}
	if d := b.dropped - t.dropped[node]; d > 0 {
		n.tr.AddDropped(d)
		t.dropped[node] = b.dropped
	}
	if b.totals != nil {
		b.totals.Node = node
		t.totals[node] = b.totals
	}
	n.cfg.View.SetNodePass(node, len(t.remote[node]))
	n.updateSkew()
	return nil
}

// quiescePeer tells a connection-oriented endpoint that this node no longer
// owes peer anything, so its EOF is a clean exit rather than a failure.
func (n *Node) quiescePeer(peer int) {
	if n.conn != nil {
		n.conn.QuiescePeer(peer)
	}
}

// flushTelemetry is the run-end exchange: followers ship their final batch,
// wait for the coordinator's empty acknowledgement, and fold the flush
// traffic into their last pass window; the coordinator collects every final
// batch, acks, and folds its side the same way. The ack doubles as a
// shutdown barrier — without it a finished follower would close its
// connection while the coordinator still waits on other peers' finals, and
// the EOF would be mistaken for a peer failure.
//
// The ack releases followers one at a time, so their closes are staggered:
// each node quiesces the peers it no longer owes anything — a follower owes
// the other followers nothing once it enters the flush (only the
// coordinator's ack is outstanding), and the coordinator owes a follower
// nothing once its ack is sent — so those peers' EOFs read as the clean
// exits they are. A peer dying *before* it is quiesced (e.g. a follower
// crashing before its final batch) still fails the run.
func (n *Node) flushTelemetry() error {
	if n.ep.N() == 1 {
		return nil // the plane needs peers
	}
	if n.IsCoord() {
		if err := n.gather(n.ingestTelemetry, KTelemetry); err != nil {
			return err
		}
		n.recordRemoteSpans()
		if _, err := n.bcast(KTelemetry, nil, n.quiescePeer); err != nil {
			return err
		}
	} else {
		for p := 1; p < n.ep.N(); p++ {
			if p != n.ep.ID() {
				n.quiescePeer(p)
			}
		}
		if err := n.shipTelemetry(true); err != nil {
			return err
		}
		if _, err := n.bcast(KTelemetry, nil, nil); err != nil {
			return err
		}
		n.quiescePeer(0)
	}
	n.foldFlushWindow()
	return nil
}

// updateSkew advances the live skew snapshot over every pass that now has
// stats from all nodes (a pass completes on the coordinator one barrier
// before its remote windows arrive, so the live view trails by one pass) and
// publishes it to the skew gauges and the ClusterView.
func (n *Node) updateSkew() {
	for {
		pi := n.tel.skewNext
		if pi >= len(n.perPass) {
			return
		}
		nodes := make([]metrics.NodeStats, 0, n.ep.N())
		nodes = append(nodes, n.perPass[pi])
		for p := 1; p < n.ep.N(); p++ {
			if pi >= len(n.tel.remote[p]) {
				return
			}
			nodes = append(nodes, n.tel.remote[p][pi])
		}
		pass := pi + 1 // pass numbers are sequential from 1
		if pi < len(n.passMeta) {
			pass = n.passMeta[pi].Pass
		}
		s := metrics.ComputeSkew(pass, nodes)
		if n.tel.gauges == (skewGauges{}) && n.cfg.Registry != nil {
			n.tel.gauges = newSkewGauges(n.cfg.Registry)
		}
		n.tel.gauges.set(s)
		n.cfg.View.SetSkew(s)
		n.tel.skewNext++
	}
}

// skewGauges are the coordinator's cluster-level pgarm_skew_* series,
// refreshed as each pass's skew snapshot completes. Zero value is inert.
type skewGauges struct {
	pass      *obs.Gauge
	straggler *obs.Gauge
	barrier   *obs.FloatGauge
	bytesCV   *obs.FloatGauge
	blocksCV  *obs.FloatGauge
}

func newSkewGauges(r *obs.Registry) skewGauges {
	return skewGauges{
		pass:      r.Gauge("pgarm_skew_pass", "Pass of the latest complete skew snapshot."),
		straggler: r.Gauge("pgarm_skew_straggler_node", "Node with the longest scan time in the latest complete pass."),
		barrier:   r.FloatGauge("pgarm_skew_barrier_max_over_mean", "Barrier-wait imbalance ratio (max/mean) of the latest complete pass."),
		bytesCV:   r.FloatGauge("pgarm_skew_bytes_sent_cv", "Coefficient of variation of per-node fabric bytes sent in the latest complete pass."),
		blocksCV:  r.FloatGauge("pgarm_skew_blocks_scanned_cv", "Coefficient of variation of per-node blocks scanned in the latest complete pass."),
	}
}

func (g skewGauges) set(s metrics.SkewReport) {
	g.pass.Set(int64(s.Pass))
	g.straggler.Set(int64(s.Straggler))
	g.barrier.Set(s.BarrierWaitMaxOverMean)
	g.bytesCV.Set(s.BytesSentCV)
	g.blocksCV.Set(s.BlocksScannedCV)
}

// --- wire codec -----------------------------------------------------------

// appendTelemetry encodes a batch with the repo's varint conventions:
//
//	version byte | flags byte (bit0 = final) | t3 | t2 (when t3 != 0)
//	| dropped | firstPass | numPasses passes | numTracks tracks
//	| numSpans spans | totals (final batches only)
//
// All scalars are uvarints except span arg values (zigzag — they may be
// negative). A pass is the rows of metrics.Counters in order, then its
// per-kind traffic; a traffic record is always msgs sent, msgs received,
// bytes sent, bytes received. Tracks and spans carry a lane but no node:
// they belong to the sender. t2 is spelled only when t3 is, so a batch
// without spans spends no byte on the clock exchange.
func appendTelemetry(dst []byte, b *telemetryBatch) []byte {
	dst = append(dst, telemetryVersion)
	var flags byte
	if b.final {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = wire.AppendUvarint(dst, uint64(b.sentAt))
	if b.sentAt != 0 {
		dst = wire.AppendUvarint(dst, uint64(b.bcastAt))
	}
	dst = wire.AppendUvarint(dst, uint64(b.dropped))
	dst = wire.AppendUvarint(dst, uint64(b.firstPass))

	dst = wire.AppendUvarint(dst, uint64(len(b.passes)))
	for i := range b.passes {
		for _, c := range metrics.Counters {
			dst = wire.AppendUvarint(dst, uint64(*c.At(&b.passes[i])))
		}
		dst = appendKindIO(dst, b.passes[i].ByKind)
	}
	dst = wire.AppendUvarint(dst, uint64(len(b.tracks)))
	for _, t := range b.tracks {
		dst = wire.AppendUvarint(dst, uint64(t.Lane))
		dst = wire.AppendStr(dst, t.Name)
	}
	dst = wire.AppendUvarint(dst, uint64(len(b.spans)))
	for i := range b.spans {
		sp := &b.spans[i]
		dst = wire.AppendStr(dst, sp.Name)
		dst = wire.AppendUvarint(dst, uint64(sp.Lane))
		dst = wire.AppendUvarint(dst, uint64(sp.Start))
		dst = wire.AppendUvarint(dst, uint64(sp.Dur))
		dst = wire.AppendUvarint(dst, uint64(len(sp.Args)))
		for _, a := range sp.Args {
			dst = wire.AppendStr(dst, a.Key)
			dst = wire.AppendZig(dst, a.Val)
		}
	}
	if b.final {
		dst = appendKindIO(appendTraffic(dst, b.totals.Traffic), b.totals.ByKind)
	}
	return dst
}

func appendTraffic(dst []byte, t cluster.Traffic) []byte {
	for _, v := range [...]int64{t.MsgsSent, t.MsgsReceived, t.BytesSent, t.BytesReceived} {
		dst = wire.AppendUvarint(dst, uint64(v))
	}
	return dst
}

func decodeTraffic(d *wire.Dec) cluster.Traffic {
	return cluster.Traffic{MsgsSent: d.I64(), MsgsReceived: d.I64(), BytesSent: d.I64(), BytesReceived: d.I64()}
}

func appendKindIO(dst []byte, ks []metrics.KindIO) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = appendTraffic(append(dst, k.Kind), k.Traffic)
	}
	return dst
}

// decodeTelemetry is appendTelemetry's inverse. Every collection length is
// bounded by the payload through its smallest element (a pass is its counters
// and a kind count, a track two ids and a name length, ...).
func decodeTelemetry(p []byte) (*telemetryBatch, error) {
	d := wire.NewDec(p)
	if v := d.Byte(); v != telemetryVersion {
		d.Fail("driver: unsupported telemetry version %d", v)
	}
	b := &telemetryBatch{final: d.Byte()&1 != 0, sentAt: d.I64()}
	if b.sentAt != 0 {
		b.bcastAt = d.I64()
	}
	b.dropped, b.firstPass = d.I64(), d.Int()
	for i, n := 0, d.Count(len(metrics.Counters)+1); i < n && d.Err() == nil; i++ {
		var s metrics.NodeStats
		for _, c := range metrics.Counters {
			*c.At(&s) = d.I64()
		}
		s.ByKind = decodeKindIO(&d)
		b.passes = append(b.passes, s)
	}
	for i, n := 0, d.Count(2); i < n && d.Err() == nil; i++ {
		b.tracks = append(b.tracks, obs.TrackName{Lane: d.I32(), Name: d.Str()})
	}
	for i, n := 0, d.Count(5); i < n && d.Err() == nil; i++ {
		sp := obs.SpanRecord{
			Name:  d.Str(),
			Lane:  d.I32(),
			Start: d.I64(),
			Dur:   d.I64(),
		}
		for j, m := 0, d.Count(2); j < m && d.Err() == nil; j++ {
			sp.Args = append(sp.Args, obs.Arg{Key: d.Str(), Val: d.Zig()})
		}
		b.spans = append(b.spans, sp)
	}
	if b.final {
		b.totals = &metrics.EndpointTotals{Traffic: decodeTraffic(&d), ByKind: decodeKindIO(&d)}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

func decodeKindIO(d *wire.Dec) []metrics.KindIO {
	n := d.Count(5)
	if n == 0 {
		return nil
	}
	out := make([]metrics.KindIO, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Byte()
		out = append(out, metrics.KindIO{Kind: k, Name: kindName(k), Traffic: decodeTraffic(d)})
	}
	return out
}
