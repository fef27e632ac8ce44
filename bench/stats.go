package main

import (
	"math"
	"sort"
)

// dist is the distribution behind one reported value: the median is what
// the benchmark reports, the quartiles are what -compare and -sets use to
// tell a regression from run-to-run noise.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes the median, quartiles and range of v. Quartiles follow
// Python's statistics.quantiles(v, n=4) (the "exclusive" method), because
// that is the function the acceptance driver computes spreads with.
func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{Min: s[0], Max: s[len(s)-1], N: len(s)}
	if len(s) == 1 {
		d.Median, d.Q1, d.Q3 = s[0], s[0], s[0]
		return d
	}
	q := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	d.Q1, d.Median, d.Q3 = q(1), q(2), q(3)
	return d
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile returns the p-quantile of ascending-sorted values by nearest
// rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
