package driver

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/cumulate"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/wire"
)

// Node is one shared-nothing processor of the runtime: a fabric endpoint,
// the pass driver and the per-pass instrumentation. Node 0 doubles as the
// coordinator, as in the paper. The mining logic itself lives in the
// attached Miner.
type Node struct {
	id    int
	ep    cluster.Endpoint
	conn  connEndpoint // ep when it is connection-oriented, else nil
	cfg   Spec
	miner Miner

	// keepResults makes this node record result levels and pass metadata
	// even when it is not the coordinator — the multi-process worker mode,
	// where each process only sees its own node. Set by RunWorker.
	keepResults bool
	// sharedObs marks an in-process run where every node writes to the same
	// Tracer: span batches are then skipped on the telemetry plane (they are
	// already in the shared trace), while pass stats still flow so the
	// coordinator's skew analytics and View stay live. Set by Run.
	sharedObs bool

	totalSize int
	minCount  int64

	// pending holds inbox messages that arrived ahead of the phase that
	// consumes them (e.g. a fast peer's pass-k data while we still await the
	// pass-(k-1) KLarge broadcast).
	pending []cluster.Message

	// Pass metadata — each pass's RunStats entry before any node's counters
	// are attached — recorded where results are kept (coordinator, or every
	// node in worker mode).
	passMeta []metrics.PassStats

	// Per-pass metrics, one entry per completed pass.
	perPass []metrics.NodeStats
	cur     metrics.NodeStats // counters of the pass in flight

	// Observability: phase-span tracer and live instruments (both inert when
	// unconfigured), plus the monotonic fabric snapshots that delimit the
	// current pass's communication window.
	tr       *obs.Tracer
	ins      nodeInstruments
	base     cluster.Traffic
	baseKind []cluster.Traffic

	// lastGenerate is the wall time of the most recent candidate generation,
	// recorded into the following pass's metadata.
	lastGenerate time.Duration

	// tel is the cluster telemetry plane's state: ship cursors on followers,
	// the ingested cluster-wide view on the coordinator (see telemetry.go).
	tel telemetryState

	// phaseWord packs the published protocol position (pass << 8 | phase),
	// read by the fabric's peer-loss path so aborts name the pass and phase
	// the run died in (see plan.go).
	phaseWord atomic.Uint64
}

// newNode wires one node of the protocol to an endpoint. Run executes it.
func newNode(ep cluster.Endpoint, cfg Spec, m Miner) *Node {
	n := &Node{
		id:    ep.ID(),
		ep:    ep,
		cfg:   cfg,
		miner: m,
		tr:    cfg.Tracer,
		ins:   newNodeInstruments(cfg.Registry, ep.ID()),
	}
	if n.conn, _ = ep.(connEndpoint); n.conn != nil {
		n.conn.SetPhase(n.phaseLabel)
	}
	return n
}

// ID is this node's cluster rank; node 0 is the coordinator.
func (n *Node) ID() int { return n.id }

// NumNodes is the cluster size.
func (n *Node) NumNodes() int { return n.ep.N() }

// IsCoord reports whether this node is the coordinator.
func (n *Node) IsCoord() bool { return n.id == 0 }

// Keep reports whether this node records result levels (the coordinator
// always does; followers only in worker mode).
func (n *Node) Keep() bool { return n.IsCoord() || n.keepResults }

// Miner is the mining logic attached to this node; after a run it holds the
// family's results (see Keep).
func (n *Node) Miner() Miner { return n.miner }

// TotalSize is the global database size |D| established by the size
// exchange.
func (n *Node) TotalSize() int { return n.totalSize }

// MinCount is the absolute minimum support count derived from |D|.
func (n *Node) MinCount() int64 { return n.minCount }

// Workers is the effective scan-worker count (>= 1).
func (n *Node) Workers() int { return n.cfg.workers() }

// Span opens a phase span on this node's driver lane (lane 0). Inert when
// no tracer is configured.
func (n *Node) Span(name string) obs.Span { return n.tr.Begin(n.id, 0, name) }

// numPeers returns the number of other nodes.
func (n *Node) numPeers() int { return n.ep.N() - 1 }

// recvKind blocks until a message of one of the wanted kinds arrives,
// stashing everything else in the pending queue for later phases. When the
// inbox closes the endpoint's terminal error (e.g. a lost TCP peer) is
// attached as the cause.
func (n *Node) recvKind(want ...uint8) (cluster.Message, error) {
	for i, m := range n.pending {
		if slices.Contains(want, m.Kind) {
			n.pending = slices.Delete(n.pending, i, i+1)
			return m, nil
		}
	}
	for m := range n.ep.Inbox() {
		if slices.Contains(want, m.Kind) {
			return m, nil
		}
		n.pending = append(n.pending, m)
	}
	if cause := n.ep.Err(); cause != nil {
		return cluster.Message{}, fmt.Errorf("driver: node %d inbox closed while waiting for kind %v: %w", n.id, want, cause)
	}
	return cluster.Message{}, fmt.Errorf("driver: node %d inbox closed while waiting for kind %v", n.id, want)
}

// Run executes the whole mining protocol on this node, then the run-end
// telemetry flush (every protocol termination path is decided identically on
// all nodes, so the flush exchange is always consistent).
func (n *Node) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("driver: node %d panicked: %v", n.id, r)
		}
	}()
	if err := n.runProtocol(); err != nil {
		return err
	}
	n.setPhase(0, phaseFlush)
	if err := n.flushTelemetry(); err != nil {
		return err
	}
	n.cfg.View.Finish()
	return nil
}

// runProtocol is the mining protocol proper: size exchange, pass 1, then the
// level-wise generate/count/barrier loop.
func (n *Node) runProtocol() error {
	if n.tr.Enabled() {
		n.tr.SetThreadName(n.id, 0, "driver")
	}
	n.cfg.View.Init(n.id, n.ep.N())
	ssp := n.tr.Begin(n.id, 0, "size-exchange")
	if err := n.sizeExchange(); err != nil {
		return err
	}
	ssp.End()
	nf, err := n.pass1()
	if err != nil {
		return err
	}
	if nf == 0 {
		return nil
	}
	for k := 2; n.cfg.MaxK == 0 || k <= n.cfg.MaxK; k++ {
		// Candidate generation opens the plan phase: deterministic on every
		// node (same F_(k-1), same generator), and the nc == 0 termination
		// below is therefore decided identically everywhere — which is what
		// lets the plan phase exchange messages without stranding them.
		n.setPhase(k, phasePlan)
		gsp := n.tr.Begin(n.id, 0, "generate")
		genStart := time.Now()
		nc, err := n.miner.Generate(n, k)
		if err != nil {
			return err
		}
		n.lastGenerate = time.Since(genStart)
		gsp.Arg("candidates", int64(nc))
		gsp.Arg("workers", int64(n.Workers()))
		gsp.End()
		if nc == 0 {
			return nil
		}
		nf, err = n.runPass(k, nc)
		if err != nil {
			return err
		}
		if nf == 0 {
			return nil
		}
	}
	return nil
}

// gather is the coordinator's half of every collective of the protocol: it
// blocks until each peer has delivered exactly one message of each listed
// kind and hands them to fold in arrival order. Anything else that arrives
// meanwhile is stashed for the phase that consumes it (recvKind); a second
// message of one kind from one peer is a protocol error. The blocked time is
// this node's barrier wait, so fold should only stash or sum — work that must
// stay out of the skew signal runs after gather returns.
func (n *Node) gather(fold func(m cluster.Message) error, kinds ...uint8) error {
	wait := time.Now()
	defer func() { n.cur.BarrierWait += time.Since(wait) }()
	seen := make([]bool, len(kinds)*n.ep.N())
	for left := len(kinds) * n.numPeers(); left > 0; left-- {
		m, err := n.recvKind(kinds...)
		if err != nil {
			return err
		}
		if m.From <= 0 || m.From >= n.ep.N() {
			return fmt.Errorf("driver: %s message from unexpected node %d", kindName(m.Kind), m.From)
		}
		slot := slices.Index(kinds, m.Kind)*n.ep.N() + m.From
		if seen[slot] {
			return fmt.Errorf("driver: second %s message from node %d in one gather", kindName(m.Kind), m.From)
		}
		seen[slot] = true
		if err := fold(m); err != nil {
			return err
		}
	}
	return nil
}

// bcast is the other collective. On the coordinator it sends payload to
// every peer in rank order — calling sent(p), when non-nil, right after peer
// p's send — and returns payload; on a follower it blocks for the
// coordinator's message of that kind, charges the wait to the barrier, and
// returns its payload (the argument is ignored).
func (n *Node) bcast(kind uint8, payload []byte, sent func(peer int)) ([]byte, error) {
	if !n.IsCoord() {
		wait := time.Now()
		m, err := n.recvKind(kind)
		n.cur.BarrierWait += time.Since(wait)
		return m.Payload, err
	}
	for p := 1; p < n.ep.N(); p++ {
		if err := n.ep.Send(p, kind, payload); err != nil {
			return nil, err
		}
		if sent != nil {
			sent(p)
		}
	}
	return payload, nil
}

// sizeExchange establishes the global database size |D| (and from it the
// absolute minimum support count): every node reports its local partition
// size to the coordinator, which broadcasts the sum. In-process clusters
// could compute this directly, but routing it through the protocol keeps a
// single code path for multi-process workers that only know their own disk.
func (n *Node) sizeExchange() error {
	total := n.miner.LocalSize()
	if n.IsCoord() {
		err := n.gather(func(m cluster.Message) error {
			d := wire.NewDec(m.Payload)
			total += d.Int()
			if err := d.Done(); err != nil {
				return fmt.Errorf("driver: decode size from node %d: %w", m.From, err)
			}
			return nil
		}, KSize)
		if err != nil {
			return err
		}
	} else if err := n.ep.Send(0, KSize, wire.AppendUvarint(nil, uint64(total))); err != nil {
		return err
	}
	payload, err := n.bcast(KSize, wire.AppendUvarint(nil, uint64(total)), nil)
	if err != nil {
		return err
	}
	d := wire.NewDec(payload)
	n.totalSize = d.Int()
	if err := d.Done(); err != nil {
		return fmt.Errorf("driver: decode |D| broadcast: %w", err)
	}
	n.minCount = cumulate.MinCount(n.cfg.MinSupport, n.totalSize)
	return nil
}

// pass1 runs the miner's dense pass-1 count over the local partition,
// reduces the vectors on the coordinator and broadcasts the global result.
// Every algorithm shares it: C_1 is just an array indexed by item, so there
// is nothing to partition.
func (n *Node) pass1() (int, error) {
	numItems := n.miner.NumItems()
	pr := n.openPass(1, numItems)
	// Pass 1 has a fixed plan — the dense count vector is reduced, never
	// partitioned — recorded anyway so the report's plan section covers every
	// pass.
	pr.plan = PlanDecision{Pass: 1, Partitioner: "dense-reduce", Granule: "all", Candidates: numItems, Duplicated: numItems}
	n.cfg.View.SetPlan(pr.plan)
	n.setPhase(1, phaseExecute)
	counts, err := n.miner.CountPass1(n, &n.cur)
	if err != nil {
		return 0, fmt.Errorf("driver: node %d pass 1 scan: %w", n.id, err)
	}

	n.setPhase(1, phaseBarrier)
	bsp := n.tr.Begin(n.id, 0, "barrier")
	global, err := n.reduceCounts(counts)
	if err != nil {
		return 0, err
	}
	bsp.End()
	if pr.large, err = n.miner.FinishPass1(n, global); err != nil {
		return 0, err
	}
	n.closePass(pr)
	return pr.large, nil
}

// addCounts sums the count vector a peer sent into total; what names the
// vector in errors.
func addCounts(total []int64, m cluster.Message, what string) error {
	d := wire.NewDec(m.Payload)
	counts := d.CountsAuto(len(total))
	if err := d.Done(); err != nil {
		return fmt.Errorf("driver: decode %s counts from node %d: %w", what, m.From, err)
	}
	if len(counts) != len(total) {
		return fmt.Errorf("driver: node %d sent %d %s counts, want %d", m.From, len(counts), what, len(total))
	}
	for i, c := range counts {
		total[i] += c
	}
	return nil
}

// reduceCounts sums dense count vectors at the coordinator (KCounts1) and
// broadcasts the global vector (KLarge).
func (n *Node) reduceCounts(counts []int64) ([]int64, error) {
	if n.IsCoord() {
		err := n.gather(func(m cluster.Message) error { return addCounts(counts, m, "pass-1 item") }, KCounts1)
		if err != nil {
			return nil, err
		}
		_, err = n.bcast(KLarge, wire.AppendCountsAuto(nil, counts), nil)
		return counts, err
	}
	if err := n.ep.Send(0, KCounts1, wire.AppendCountsAuto(nil, counts)); err != nil {
		return nil, err
	}
	payload, err := n.bcast(KLarge, nil, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(payload)
	global := d.CountsAuto(len(counts))
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("driver: decode global pass-1 counts: %w", err)
	}
	return global, nil
}

// passRun is one pass's window: what openPass starts, the phases fill in and
// closePass records.
type passRun struct {
	k       int
	nCands  int
	started time.Time
	psp     obs.Span     // the whole-pass span
	plan    PlanDecision // the plan phase's decision
	out     PassOutcome  // the execute phase's barrier contribution
	large   int          // |F_k| once the barrier resolves
}

// openPass opens pass k's window: fresh counters, the live instruments and
// View, and the whole-pass span.
func (n *Node) openPass(k, nCands int) *passRun {
	pr := &passRun{k: k, nCands: nCands, started: time.Now()}
	n.cur = metrics.NodeStats{Node: n.id}
	n.ins.startPass(k, nCands)
	n.cfg.View.StartPass(k, nCands)
	if n.tr.Enabled() {
		pr.psp = n.tr.Begin(n.id, 0, fmt.Sprintf("pass %d", k))
	}
	return pr
}

// closePass closes the pass window and stages the replan input: the
// telemetry the barrier ingested advances the coordinator's complete skew
// snapshot (updateSkew), which the *next* pass's plan phase broadcasts. Pass
// metadata — including the plan decision — is recorded here.
func (n *Node) closePass(pr *passRun) {
	n.setPhase(pr.k, phaseReplan)
	n.capturePassComm()
	n.ins.endPass(&n.cur)
	n.perPass = append(n.perPass, n.cur)
	n.cfg.View.SetNodePass(n.id, len(n.perPass))
	if n.IsCoord() {
		n.updateSkew()
	}
	pr.psp.Arg("candidates", int64(pr.nCands))
	pr.psp.Arg("large", int64(pr.large))
	pr.psp.End()
	elapsed := time.Since(pr.started)
	if n.Keep() {
		n.passMeta = append(n.passMeta, metrics.PassStats{
			Pass:       pr.k,
			Candidates: pr.nCands,
			Duplicated: pr.out.Duplicated,
			Fragments:  pr.out.Fragments,
			Large:      pr.large,
			Elapsed:    elapsed,
			Generate:   n.lastGenerate,
			Plan:       &pr.plan,
		})
	}
	n.emitProgress(pr.k, pr.nCands, pr.large, elapsed)
}

// runPass executes one count-support pass for k >= 2 as four named phases,
// in the only order they can run, and returns |F_k| (identical on every node
// after the broadcast).
//
//	Plan     exchange the coordinator's latest complete skew snapshot
//	         (KPlan) and compute the pass's candidate-to-node assignment via
//	         the miner's PlanPass; identical on every node.
//	Execute  the miner's count-support phase over the plan.
//	Barrier  the F_k gather/broadcast (gatherFrequents), which also carries
//	         the followers' telemetry batches.
//	Replan   close the pass window (closePass): capture communication,
//	         advance the coordinator's skew snapshot (the input to the *next*
//	         pass's Plan phase) and record the pass metadata.
func (n *Node) runPass(k, nCands int) (int, error) {
	pr := n.openPass(k, nCands) // still in the plan phase generation opened
	if err := n.planPhase(pr); err != nil {
		return 0, err
	}
	n.setPhase(k, phaseExecute)
	out, err := n.miner.CountPass(n, k, &n.cur)
	if err != nil {
		return 0, fmt.Errorf("driver: node %d pass %d: %w", n.id, k, err)
	}
	pr.out = out
	n.setPhase(k, phaseBarrier)
	if pr.large, err = n.gatherFrequents(k, out); err != nil {
		return 0, err
	}
	n.closePass(pr)
	return pr.large, nil
}

// planPhase turns the latest complete skew snapshot into this pass's plan.
// The KPlan exchange happens here — after every node has decided (via the
// identical nc > 0 check) that the run continues, so no hint message can be
// stranded by termination. A follower blocking on the hint is barrier-like
// idle time, and bcast charges it so.
func (n *Node) planPhase(pr *passRun) error {
	if n.IsCoord() && n.cfg.OnPassStart != nil {
		n.cfg.OnPassStart(pr.k, pr.nCands)
	}
	hint, err := n.exchangeSkewHint(pr.k)
	if err != nil {
		return err
	}
	plsp := n.tr.Begin(n.id, 0, "plan")
	dec, err := n.miner.PlanPass(n, pr.k, hint)
	if err != nil {
		return fmt.Errorf("driver: node %d pass %d plan: %w", n.id, pr.k, err)
	}
	dec.Pass = pr.k
	if hint != nil {
		dec.SkewPass = hint.Pass
	}
	pr.plan = dec
	n.cfg.View.SetPlan(dec)
	plsp.Arg("duplicated", int64(dec.Duplicated))
	plsp.Arg("escalations", int64(len(dec.Escalations)))
	plsp.End()
	return nil
}

// gatherFrequents implements the pass-end protocol shared by every miner:
//
//   - every non-coordinator sends its locally determined frequents
//     (out.Owned, already filtered by MinCount and encoded by the miner) and
//     the dense count vector of its replicated candidates (out.DupCounts,
//     may be empty);
//   - the coordinator reduces the replicated counts, hands both to the
//     miner's MergeFrequents, and broadcasts the returned global F_k.
func (n *Node) gatherFrequents(k int, out PassOutcome) (int, error) {
	bsp := n.tr.Begin(n.id, 0, "barrier")
	defer bsp.End()
	if !n.IsCoord() {
		if err := n.ep.Send(0, KLocalLarge, out.Owned); err != nil {
			return 0, err
		}
		if err := n.ep.Send(0, KDupCounts, wire.AppendCountsAuto(nil, out.DupCounts)); err != nil {
			return 0, err
		}
		// Piggyback this node's telemetry batch on the barrier it already
		// pays for; sent before capturePassComm, so its bytes land inside
		// the current pass window like the rest of the barrier traffic.
		if err := n.shipTelemetry(false); err != nil {
			return 0, err
		}
		payload, err := n.bcast(KLarge, nil, nil)
		if err != nil {
			return 0, err
		}
		return n.miner.FinishPass(n, k, payload)
	}

	// Coordinator: one owned-frequent message, one replicated count vector
	// and one telemetry batch per peer. The batches are stashed raw and
	// decoded only after the barrier wait is measured, so ingest cost never
	// contaminates the skew signal it feeds.
	dupTotal := append([]int64(nil), out.DupCounts...)
	var peerOwned [][]byte
	var telem []cluster.Message
	err := n.gather(func(m cluster.Message) error {
		switch m.Kind {
		case KLocalLarge:
			peerOwned = append(peerOwned, m.Payload)
		case KDupCounts:
			return addCounts(dupTotal, m, "replicated")
		case KTelemetry:
			telem = append(telem, m)
		}
		return nil
	}, KLocalLarge, KDupCounts, KTelemetry)
	if err != nil {
		return 0, err
	}
	for _, m := range telem {
		if err := n.ingestTelemetry(m); err != nil {
			return 0, err
		}
	}
	payload, nf, err := n.miner.MergeFrequents(n, k, peerOwned, dupTotal)
	if err != nil {
		return 0, err
	}
	_, err = n.bcast(KLarge, payload, nil)
	return nf, err
}
