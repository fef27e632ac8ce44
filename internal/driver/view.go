package driver

import (
	"encoding/json"
	"net/http"
	"sync"

	"pgarm/internal/metrics"
)

// ClusterView is the live run-introspection surface behind /debug/cluster: a
// mutex-guarded snapshot of the run the node goroutine updates at pass
// boundaries and the telemetry ingest path updates per peer. It implements
// http.Handler, replying with the JSON snapshot, and is safe for concurrent
// readers during a run.
type ClusterView struct {
	mu sync.Mutex
	v  ClusterSnapshot
}

// ClusterSnapshot is the JSON shape /debug/cluster serves.
type ClusterSnapshot struct {
	// Nodes is the cluster size; Node the id of the process serving this view.
	Nodes int `json:"nodes"`
	Node  int `json:"node"`
	// Pass and Candidates describe the pass currently executing on this node.
	Pass       int `json:"pass"`
	Candidates int `json:"candidates"`
	// Done flips when the protocol has completed on this node.
	Done bool `json:"done"`
	// Phase is the state-machine state this node is currently in (plan,
	// execute, barrier; startup/flush outside the pass loop).
	Phase string `json:"phase,omitempty"`
	// Progress lists, per node, the last pass this view has complete stats
	// for, and its lag behind the current pass. On a follower only the local
	// entry is populated; the coordinator sees the whole cluster via the
	// telemetry stream (remote entries trail by one pass: a peer's pass-k
	// stats arrive with its pass-(k+1) barrier message or the final flush).
	Progress []NodeProgress `json:"progress,omitempty"`
	// Skew is the most recent complete-pass skew snapshot (coordinator only).
	Skew *metrics.SkewReport `json:"skew,omitempty"`
	// Plan is the current pass's plan decision: which partitioner the pass
	// runs and its duplication granule.
	Plan *metrics.PlanDecision `json:"plan,omitempty"`
}

// NodeProgress is one node's entry in a ClusterSnapshot.
type NodeProgress struct {
	Node     int `json:"node"`
	LastPass int `json:"last_pass"`
	Lag      int `json:"lag"`
}

// update applies fn to the snapshot under the lock and refreshes the lags; a
// nil view (none configured) is inert.
func (cv *ClusterView) update(fn func(v *ClusterSnapshot)) {
	if cv == nil {
		return
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	fn(&cv.v)
	for i := range cv.v.Progress {
		lag := cv.v.Pass - cv.v.Progress[i].LastPass
		if cv.v.Done || lag < 0 {
			lag = 0
		}
		cv.v.Progress[i].Lag = lag
	}
}

// Init sizes the view for a run. Called by the node at run start; resets any
// previous run's state.
func (cv *ClusterView) Init(self, nodes int) {
	cv.update(func(v *ClusterSnapshot) {
		*v = ClusterSnapshot{Nodes: nodes, Node: self, Progress: make([]NodeProgress, nodes)}
		for i := range v.Progress {
			v.Progress[i].Node = i
		}
	})
}

// StartPass records the pass now executing.
func (cv *ClusterView) StartPass(pass, candidates int) {
	cv.update(func(v *ClusterSnapshot) { v.Pass, v.Candidates = pass, candidates })
}

// SetNodePass records that this view has complete pass stats for node up to
// lastPass.
func (cv *ClusterView) SetNodePass(node, lastPass int) {
	cv.update(func(v *ClusterSnapshot) {
		if node >= 0 && node < len(v.Progress) {
			v.Progress[node].LastPass = lastPass
		}
	})
}

// SetSkew publishes the latest complete-pass skew snapshot.
func (cv *ClusterView) SetSkew(s metrics.SkewReport) {
	cv.update(func(v *ClusterSnapshot) { v.Skew = &s })
}

// SetPlan publishes the current pass's plan decision.
func (cv *ClusterView) SetPlan(d metrics.PlanDecision) {
	cv.update(func(v *ClusterSnapshot) { v.Plan = &d })
}

// SetPhase publishes the state-machine state this node is in.
func (cv *ClusterView) SetPhase(phase string) {
	cv.update(func(v *ClusterSnapshot) { v.Phase = phase })
}

// Finish marks the run complete.
func (cv *ClusterView) Finish() {
	cv.update(func(v *ClusterSnapshot) { v.Done = true })
}

// Snapshot returns a deep copy of the current view.
func (cv *ClusterView) Snapshot() ClusterSnapshot {
	if cv == nil {
		return ClusterSnapshot{}
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	out := cv.v
	out.Progress = append([]NodeProgress(nil), cv.v.Progress...)
	if cv.v.Skew != nil {
		s := *cv.v.Skew
		out.Skew = &s
	}
	if cv.v.Plan != nil {
		p := *cv.v.Plan
		out.Plan = &p
	}
	return out
}

// ServeHTTP serves the snapshot as JSON — the /debug/cluster endpoint.
func (cv *ClusterView) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap := cv.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&snap)
}
