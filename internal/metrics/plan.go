package metrics

// PlanDecision is one pass's candidate-to-node assignment, made first-class:
// the artifact the driver's plan phase produces before any scanning starts.
// Every node computes the identical decision from globally replicated inputs
// (C_k, the pass-1 counts, owners, the memory budget), so the decision is
// both inspectable (report, /debug/cluster) and bit-identity-safe —
// duplication only moves where a candidate is counted, never whether it is
// counted.
type PlanDecision struct {
	Pass int `json:"pass"`
	// Partitioner names the assignment rule: "root-vector-hash" (H-HPGM and
	// its duplicating variants), "itemset-hash" (HPGM), "replicated" (NPGM,
	// the H-HPGM engine with every candidate duplicated), "suffix-rank-mod"
	// (FPG) or "dense-reduce" (pass 1).
	Partitioner string `json:"partitioner"`
	// Granule is the duplication granule the pass ran with: "none", "tree",
	// "path", "fine", or "all" for NPGM. A duplicating variant with no
	// budget duplicates all of C_k too but keeps its own granule.
	Granule string `json:"granule"`
	// Candidates is |C_k|; Duplicated how many of them every node counts
	// locally under this plan.
	Candidates int `json:"candidates"`
	Duplicated int `json:"duplicated,omitempty"`
}
