package driver

import "fmt"

// passPhase labels a pass's phases for error context and the /debug/cluster
// view.
type passPhase uint8

const (
	phaseStartup passPhase = iota
	phasePlan
	phaseExecute
	phaseBarrier
	phaseFlush
)

var phaseNames = [...]string{"startup", "plan", "execute", "barrier", "flush"}

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
// peer-loss errors, and marking a peer's coming EOF as orderly shutdown.
// Channel endpoints have no connections to lose, and simply don't
// implement it.
type connEndpoint interface {
	SetPhase(fn func() string)
	QuiescePeer(peer int)
}
