package driver

import (
	"fmt"
	"time"

	"pgarm/internal/cluster"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// Run is the in-process run skeleton every miner family shares: validate the
// Spec, construct node i's Miner with newMiner(i) for each partition parts[i]
// (where the family rejects what only it can judge), build the fabric,
// execute the protocol with one goroutine per node over its partition and the
// shared taxonomy (node 0 coordinates) and assemble the run statistics. It
// returns the levels the coordinator recorded and the stats. The first node to
// fail takes the fabric down with it, so its peers' blocked receives and sends
// end with an error instead of waiting on it forever; that first error is
// returned once every node has exited.
func Run(spec Spec, tax *taxonomy.Taxonomy, parts []txn.Scanner, newMiner func(node int) (Miner, error)) (*Result, error) {
	n := len(parts)
	if n == 0 {
		return nil, fmt.Errorf("driver: no database partitions")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	miners := make([]Miner, n)
	for i := range miners {
		m, err := newMiner(i)
		if err != nil {
			return nil, err
		}
		miners[i] = m
	}
	fabric, err := NewFabric(spec.Fabric, n, 0)
	if err != nil {
		return nil, err
	}
	defer fabric.Close()

	nodes := make([]*Node, n)
	for i, m := range miners {
		nodes[i] = newNode(fabric.Endpoint(i), spec, tax, parts[i], m)
		nodes[i].sharedObs = true // one Tracer for all in-process nodes
	}
	start := time.Now()
	errs := make(chan error, n)
	for _, nd := range nodes {
		go func(nd *Node) { errs <- nd.Run() }(nd)
	}
	var firstErr error
	for range nodes {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			fabric.Close()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{Levels: nodes[0].levels, Stats: assembleStats(spec, nodes, time.Since(start))}, nil
}

// RunWorker is Run's multi-process twin: it executes one node of the protocol
// over a caller-provided endpoint (cluster.DialMesh), with local as the node's
// partition. Every worker must run the same Spec and taxonomy; node 0
// coordinates. The Result carries the global frequents
// on every node, identical after the final broadcast. On the coordinator the
// stats also merge every worker's per-pass counters and endpoint totals —
// shipped at each pass barrier over the telemetry plane — into a full cluster
// view; on a follower they cover only the local node.
func RunWorker(spec Spec, tax *taxonomy.Taxonomy, local txn.Scanner, ep cluster.Endpoint, newMiner func() (Miner, error)) (*Result, error) {
	nd, stats, err := runWorker(spec, tax, local, ep, newMiner)
	if err != nil {
		return nil, err
	}
	return &Result{Levels: nd.levels, Stats: stats}, nil
}

// runWorker is RunWorker returning the node itself, whose protocol state
// tests inspect.
func runWorker(spec Spec, tax *taxonomy.Taxonomy, local txn.Scanner, ep cluster.Endpoint, newMiner func() (Miner, error)) (*Node, *metrics.RunStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	m, err := newMiner()
	if err != nil {
		return nil, nil, err
	}
	nd := newNode(ep, spec, tax, local, m)
	nd.keepResults = true
	start := time.Now()
	if err := nd.Run(); err != nil {
		return nil, nil, err
	}
	return nd, assembleStats(spec, []*Node{nd}, time.Since(start)), nil
}

// assembleStats builds the RunStats of a finished run from the nodes this
// process ran — every rank of an in-process run, one rank of a worker process
// — nodes[0] being the one that recorded pass metadata. The ranks it did not
// run are filled from what nodes[0] ingested over the telemetry plane: only a
// worker-mode coordinator has any, and its peers' shipped pass windows and
// endpoint-totals snapshots reconcile exactly. On a follower the stats cover
// the local node alone.
func assembleStats(spec Spec, nodes []*Node, elapsed time.Duration) *metrics.RunStats {
	coord := nodes[0]
	rs := &metrics.RunStats{
		Algorithm: string(spec.Algorithm),
		Nodes:     coord.ep.N(),
		MinSup:    spec.MinSupport,
		Elapsed:   elapsed,
	}
	for pi, ps := range coord.passMeta {
		for _, nd := range nodes {
			if pi < len(nd.perPass) {
				ps.Nodes = append(ps.Nodes, nd.perPass[pi])
			}
		}
		for p := len(nodes); p < len(coord.tel.remote); p++ {
			if pi < len(coord.tel.remote[p]) {
				ps.Nodes = append(ps.Nodes, coord.tel.remote[p][pi])
			}
		}
		rs.Passes = append(rs.Passes, ps)
	}
	for _, nd := range nodes {
		rs.Endpoints = append(rs.Endpoints, EndpointTotals(nd.id, nd.ep))
	}
	for p := len(nodes); p < len(coord.tel.totals); p++ {
		if t := coord.tel.totals[p]; t != nil {
			rs.Endpoints = append(rs.Endpoints, *t)
		}
	}
	return rs
}
