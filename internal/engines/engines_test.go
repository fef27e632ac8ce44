package engines

import (
	"errors"
	"strings"
	"testing"

	"pgarm/internal/cluster"
	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/item"
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
	for _, knob := range []struct {
		name string
		set  func(*Spec)
	}{
		{"MemoryBudget", func(s *Spec) { s.MemoryBudget = 1 << 20 }},
		{"Adaptive", func(s *Spec) { s.Adaptive = true }},
		{"EscalateAt", func(s *Spec) { s.EscalateAt = 1.5 }},
		{"JumpAt", func(s *Spec) { s.JumpAt = 3 }},
	} {
		spec := Spec{Algorithm: FPG, MinSupport: 0.5}
		knob.set(&spec)
		runErr, workerErr := run(spec)
		if !errors.Is(runErr, driver.ErrUnsupportedKnob) || !errors.Is(workerErr, driver.ErrUnsupportedKnob) {
			t.Errorf("FPG given %s: Run err %v, RunWorker err %v; want ErrUnsupportedKnob", knob.name, runErr, workerErr)
		}
	}
	for _, alg := range []Engine{"", "nope", "NPSPM"} {
		if runErr, workerErr := run(Spec{Algorithm: alg, MinSupport: 0.5}); runErr == nil || workerErr == nil {
			t.Errorf("algorithm %q: Run err %v, RunWorker err %v; want both rejected", alg, runErr, workerErr)
		}
	}
}
