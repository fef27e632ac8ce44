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
	// Partitioner names the assignment rule: "root-vector-hash" (H-HPGM
	// family), "itemset-hash" (HPGM), "replicated" (NPGM/NPSPM),
	// "pattern-hash"/"pattern-root-hash" (sequence miners), "dense-reduce"
	// (pass 1), "sequential" (the single-node baseline).
	Partitioner string `json:"partitioner"`
	// Granule is the duplication granule the pass ran with: "none", "tree",
	// "path", "fine", or "all" for fully replicated candidate sets.
	Granule string `json:"granule"`
	// Candidates is |C_k|; Duplicated how many of them every node counts
	// locally under this plan.
	Candidates int `json:"candidates"`
	Duplicated int `json:"duplicated,omitempty"`
}
