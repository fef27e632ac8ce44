package main

import (
	"strings"
	"testing"
)

// want is the demo's output: the flat-versus-generalized pair counts, the
// rules before and after the R-interestingness filter, the top ten rules and
// H-HPGM-FGD's pass-2 counters over eight nodes under a 6 MB budget. Every
// figure is a count or a ratio of counts, so it is the same on any host.
const want = `catalog: taxonomy{items:5000 roots:12 leaves:4168 maxLevel:4}; 20000 baskets, avg size 8.0

large 2-itemsets: flat Apriori 7 vs generalized 4858
(the hierarchy surfaces department/category associations invisible at SKU level)

rules at conf>=50%: 13004 total, 3819 survive R-interestingness (R=1.3)

top rules by confidence:
  {4,1761} => {0} (sup 1.03%, conf 99.0%)
  {1,3007} => {0} (sup 1.30%, conf 98.5%)
  {71,120} => {0} (sup 1.18%, conf 98.3%)
  {36,291} => {0} (sup 1.14%, conf 98.3%)
  {5,233} => {0} (sup 1.24%, conf 98.0%)
  {46,233} => {0} (sup 1.22%, conf 98.0%)
  {4,289} => {0} (sup 1.12%, conf 97.8%)
  {18,246} => {0} (sup 1.00%, conf 97.6%)
  {18,440} => {0} (sup 1.05%, conf 97.2%)
  {23,214} => {0} (sup 1.04%, conf 97.2%)

pass-2 cluster stats: 217765 candidates, 66964 duplicated, 130.3 KB received/node, probe skew min=1297286 max=1805297 mean=1526895 cv=0.136 max/mean=1.18
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
