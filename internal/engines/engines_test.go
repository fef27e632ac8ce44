package engines

import (
	"errors"
	"strings"
	"testing"

	"pgarm/internal/cluster"
	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/metrics"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

func TestParseAcceptsEveryListedEngine(t *testing.T) {
	for _, e := range List() {
		got, err := Parse(string(e))
		if err != nil {
			t.Fatalf("Parse(%q): %v", e, err)
		}
		if got != e {
			t.Fatalf("Parse(%q) = %q", e, got)
		}
	}
	if n := len(List()); n != len(core.Algorithms())+1 {
		t.Fatalf("List has %d engines, want %d core + FPG", n, len(core.Algorithms()))
	}
}

func TestParseUnknownNamesEveryEngine(t *testing.T) {
	_, err := Parse("fpg") // names are case-sensitive
	if err == nil {
		t.Fatal("expected error for unknown engine")
	}
	for _, e := range List() {
		if !strings.Contains(err.Error(), string(e)) {
			t.Errorf("error %q does not name engine %s", err, e)
		}
	}
}

// TestValidationParity: every engine rejects the same malformed Specs through
// both entry points, before any fabric is built or endpoint touched — the
// checks the families used to disagree on (negative MaxK/Workers ran with
// defaults on the itemset engines).
func TestValidationParity(t *testing.T) {
	tax, err := taxonomy.Balanced(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := txn.NewDB([]txn.Transaction{{TID: 0, Items: []item.Item{4, 9}}, {TID: 1, Items: []item.Item{4, 10}}})
	parts := []txn.Scanner{db}
	fabric := cluster.NewChanFabric(1, 4)
	defer fabric.Close()

	bad := []struct {
		name string
		set  func(*Spec)
	}{
		{"zero MinSupport", func(s *Spec) { s.MinSupport = 0 }},
		{"MinSupport above 1", func(s *Spec) { s.MinSupport = 1.5 }},
		{"negative MaxK", func(s *Spec) { s.MaxK = -1 }},
		{"negative Workers", func(s *Spec) { s.Workers = -2 }},
	}
	run := func(spec Spec) (error, error) {
		_, runErr := Run(tax, parts, spec)
		_, workerErr := RunWorker(tax, db, spec, fabric.Endpoint(0))
		return runErr, workerErr
	}
	for _, e := range List() {
		good := Spec{Algorithm: e, MinSupport: 0.5}
		if runErr, workerErr := run(good); runErr != nil || workerErr != nil {
			t.Fatalf("%s: valid spec rejected: Run %v, RunWorker %v", e, runErr, workerErr)
		}
		for _, b := range bad {
			spec := good
			b.set(&spec)
			if runErr, workerErr := run(spec); runErr == nil || workerErr == nil {
				t.Errorf("%s, %s: Run err %v, RunWorker err %v; want both rejected", e, b.name, runErr, workerErr)
			}
		}
	}

	// What only the chosen family can judge.
	runErr, workerErr := run(Spec{Algorithm: FPG, MinSupport: 0.5, MemoryBudget: 1 << 20})
	if !errors.Is(runErr, driver.ErrUnsupportedKnob) || !errors.Is(workerErr, driver.ErrUnsupportedKnob) {
		t.Errorf("FPG given MemoryBudget: Run err %v, RunWorker err %v; want ErrUnsupportedKnob", runErr, workerErr)
	}
	// NPSPM named a sequence miner, a family since removed: it must read as
	// an unknown engine, not as a silent default.
	for _, alg := range []Engine{"", "nope", "NPSPM"} {
		if runErr, workerErr := run(Spec{Algorithm: alg, MinSupport: 0.5}); runErr == nil || workerErr == nil {
			t.Errorf("algorithm %q: Run err %v, RunWorker err %v; want both rejected", alg, runErr, workerErr)
		}
	}
}

// kindTraffic is one kind's entry of a per-kind breakdown (zero when the
// breakdown stops short of it).
func kindTraffic(ks []metrics.KindIO, kind uint8) cluster.Traffic {
	for _, k := range ks {
		if k.Kind == kind {
			return k.Traffic
		}
	}
	return cluster.Traffic{}
}

// TestPassProtocolKinds pins the messages of the pass protocol on both engine
// families. The plan phase sends nothing: kind 9 is reserved and carries no
// traffic in any window. Each pass k >= 2 costs the coordinator exactly one
// local-large, one dup-counts and one telemetry message per follower; the
// last window also folds in the run-end telemetry flush, one more batch per
// follower.
func TestPassProtocolKinds(t *testing.T) {
	const nodes, reserved = 3, 9
	ds, err := gen.Generate(gen.Params{
		Name: "kinds", NumTxns: 1200, AvgTxnSize: 6, AvgPatternSize: 3, NumPatterns: 200,
		NumItems: 600, Roots: 8, Fanout: 4, CorrelationMean: 0.25, CorruptionMean: 0.6,
		CorruptionSD: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parts []txn.Scanner
	for _, p := range txn.Partition(ds.DB, nodes) {
		parts = append(parts, p)
	}
	for _, e := range []Engine{core.HHPGMFGD, FPG} {
		t.Run(string(e), func(t *testing.T) {
			res, err := Run(ds.Taxonomy, parts, Spec{Algorithm: e, MinSupport: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			rs := res.Stats
			if len(rs.Passes) < 2 {
				t.Fatalf("%d passes: need a pass k >= 2", len(rs.Passes))
			}
			for _, ep := range rs.Endpoints {
				if tr := kindTraffic(ep.ByKind, reserved); tr != (cluster.Traffic{}) {
					t.Errorf("node %d lifetime: kind %d traffic %+v", ep.Node, reserved, tr)
				}
			}
			for i, ps := range rs.Passes {
				for _, ns := range ps.Nodes {
					if tr := kindTraffic(ns.ByKind, reserved); tr != (cluster.Traffic{}) {
						t.Errorf("pass %d node %d: kind %d traffic %+v", ps.Pass, ns.Node, reserved, tr)
					}
				}
				if ps.Pass < 2 {
					continue
				}
				want := map[uint8]int64{driver.KLocalLarge: nodes - 1, driver.KDupCounts: nodes - 1, driver.KTelemetry: nodes - 1}
				if i == len(rs.Passes)-1 {
					want[driver.KTelemetry] += nodes - 1
				}
				for _, ns := range ps.Nodes {
					if ns.Node != 0 {
						continue
					}
					for kind, w := range want {
						if got := kindTraffic(ns.ByKind, kind).MsgsReceived; got != w {
							t.Errorf("pass %d: coordinator received %d messages of kind %d, want %d", ps.Pass, got, kind, w)
						}
					}
				}
			}
		})
	}
}
