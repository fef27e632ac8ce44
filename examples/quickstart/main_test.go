package main

import (
	"strings"
	"testing"
)

// want is the demo's output: every large itemset with its closure support
// and every rule at 60 % confidence. Its six baskets over four nodes make
// partitions of one and two transactions.
const want = `Large itemsets (with closure support counts):
  k=1 {clothes}                    sup_cou=6
  k=1 {footwear}                   sup_cou=5
  k=1 {outerwear}                  sup_cou=5
  k=1 {shirt}                      sup_cou=2
  k=1 {jacket}                     sup_cou=3
  k=1 {ski-pants}                  sup_cou=2
  k=1 {hiking-boots}               sup_cou=4
  k=2 {clothes,footwear}           sup_cou=5
  k=2 {clothes,hiking-boots}       sup_cou=4
  k=2 {footwear,outerwear}         sup_cou=5
  k=2 {footwear,jacket}            sup_cou=3
  k=2 {footwear,ski-pants}         sup_cou=2
  k=2 {outerwear,hiking-boots}     sup_cou=4
  k=2 {jacket,hiking-boots}        sup_cou=2
  k=2 {ski-pants,hiking-boots}     sup_cou=2

Generalized rules (confidence >= 60%):
{footwear} => {clothes} (sup 83.33%, conf 100.0%)
{footwear} => {outerwear} (sup 83.33%, conf 100.0%)
{outerwear} => {footwear} (sup 83.33%, conf 100.0%)
{hiking-boots} => {clothes} (sup 66.67%, conf 100.0%)
{hiking-boots} => {outerwear} (sup 66.67%, conf 100.0%)
{jacket} => {footwear} (sup 50.00%, conf 100.0%)
{ski-pants} => {footwear} (sup 33.33%, conf 100.0%)
{ski-pants} => {hiking-boots} (sup 33.33%, conf 100.0%)
{clothes} => {footwear} (sup 83.33%, conf 83.3%)
{outerwear} => {hiking-boots} (sup 66.67%, conf 80.0%)
{clothes} => {hiking-boots} (sup 66.67%, conf 66.7%)
{jacket} => {hiking-boots} (sup 33.33%, conf 66.7%)
{footwear} => {jacket} (sup 50.00%, conf 60.0%)
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
