package main

import (
	"strings"
	"testing"
)

// want is the demo's output: pass 2 of HPGM and H-HPGM over six TCP nodes,
// a node count that is not a power of two, so every node batches for five
// peers. |C2| and |L2| are the two algorithms' shared result; items shipped
// and the average bytes received per node are exact counts, which HPGM's
// sender and receiver must not move.
const want = `8000 transactions on 6 TCP-connected nodes, minsup 1%

HPGM     |C2|=218281   |L2|=6731   items shipped=5717432   avg received/node=1768.1 KB
H-HPGM   |C2|=218281   |L2|=6731   items shipped=187171    avg received/node=55.0 KB

H-HPGM ships only closest-to-bottom large items to the owners of their root
trees; HPGM ships every k-subset of every ancestor-extended transaction.
`

// TestOutput pins the demo's output byte for byte.
func TestOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
