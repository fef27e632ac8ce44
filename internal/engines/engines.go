// Package engines is the one way into itemset mining: a registry of every
// engine — the six candidate-generate-and-count algorithms of internal/core
// plus the pattern-growth engine of internal/fpg — and Run/RunWorker, which
// take one Spec, dispatch on its engine name and return one Result. The
// CLIs, the paper reproductions and the examples all enter here; the engine
// families validate the knobs only they can judge.
package engines

import (
	"fmt"
	"strings"

	"pgarm/internal/cluster"
	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/fpg"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// Spec describes a run, Result is its outcome and Engine names the engine a
// Spec selects (Spec.Algorithm); see internal/driver, where the shared
// runtime defines them.
type (
	Spec   = driver.Spec
	Result = driver.Result
	Engine = driver.Algorithm
)

// FPG is the taxonomy-aware parallel FP-Growth engine (internal/fpg).
const FPG Engine = fpg.Engine

// List returns every runnable engine in presentation order: the paper's six
// candidate engines first, then the pattern-growth engine.
func List() []Engine {
	return append(core.Algorithms(), FPG)
}

// Names renders List for flag help and error messages.
func Names() string {
	var names []string
	for _, e := range List() {
		names = append(names, string(e))
	}
	return strings.Join(names, ", ")
}

// Parse resolves a name (case-sensitive, as printed by List) to an Engine.
// An unknown name errors with the complete engine list, so a typo at the
// command line always shows every valid choice.
func Parse(s string) (Engine, error) {
	for _, e := range List() {
		if string(e) == s {
			return e, nil
		}
	}
	return "", fmt.Errorf("engines: unknown engine %q (valid: %s)", s, Names())
}

// Run mines parts — parts[i] is node i's local partition — with the engine
// spec.Algorithm names, over an in-process cluster of len(parts) nodes.
// Every engine returns exactly the large itemsets and support counts of
// sequential Cumulate.
func Run(tax *taxonomy.Taxonomy, parts []txn.Scanner, spec Spec) (*Result, error) {
	if spec.Algorithm == FPG {
		return fpg.Mine(tax, parts, spec)
	}
	return core.Mine(tax, parts, spec)
}

// RunWorker runs one node of the same protocol over a caller-provided
// endpoint — the multi-process entry point (cmd/pgarm-worker via
// cluster.DialMesh). Every worker must run the same Spec; node 0 coordinates.
func RunWorker(tax *taxonomy.Taxonomy, local txn.Scanner, spec Spec, ep cluster.Endpoint) (*Result, error) {
	if spec.Algorithm == FPG {
		return fpg.MineWorker(tax, local, spec, ep)
	}
	return core.MineWorker(tax, local, spec, ep)
}
