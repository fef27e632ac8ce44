package model_test

import (
	"os"
	"path/filepath"
	"testing"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/model"
	"pgarm/internal/serve"
)

// TestServingSkipsTheState pins where each section is validated. A snapshot
// whose state holds an item outside the universe is served, because a
// server never decodes the state; a follower resuming from it (Reader.State)
// and a full read (Reader.Model) refuse it. Encode refuses to write such a
// state in the first place.
func TestServingSkipsTheState(t *testing.T) {
	data := model.BadStateSnapshot()
	path := filepath.Join(t.TempDir(), "bad-state.pgarm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := serve.LoadFile(path)
	if err != nil {
		t.Fatalf("serve.LoadFile refused a snapshot whose served sections are sound: %v", err)
	}
	if ix.Taxonomy().NumItems() != 4 || ix.Meta().Algorithm != "Cumulate-FUP" {
		t.Fatalf("served %d items, algorithm %q", ix.Taxonomy().NumItems(), ix.Meta().Algorithm)
	}
	r, err := model.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.State(); err == nil {
		t.Fatal("Reader.State accepted a border item outside the universe")
	}
	if _, err := r.Model(); err == nil {
		t.Fatal("Reader.Model accepted a border item outside the universe")
	}
	bad := &model.Model{Taxonomy: ix.Taxonomy(), State: &model.MiningState{
		ItemCounts: make([]int64, 4),
		Levels:     [][]itemset.Counted{{{Items: []item.Item{1, 4}, Count: 1}}},
	}}
	if _, err := model.Encode(bad); err == nil {
		t.Fatal("Encode wrote a border item outside the universe")
	}
}
