package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// percentile returns the p-th percentile (0..100) of an ascending
// sample by linear interpolation between closest ranks; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return sorted[lo] + (r-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailPercentiles are the percentiles a report may name, ascending,
// each with the share of the sample that lies beyond it, per mille.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// supportedPercentile returns the highest of tailPercentiles that has
// at least ten of n samples beyond it, 0 when even the median has not.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return percentile(sorted(vs), 50) }

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(vs, n=4), which
// is what the acceptance check computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		d := float64(i*(n+1)-j*4) / 4
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// hist is a sparse bucketed histogram in the fixed log-linear layout of
// metrics.BucketHist: what OpStats carries, summed over brokers and
// differenced over a measured window.
type hist map[int]int64

func (h hist) add(sh *wire.StatHist) {
	for _, b := range sh.Buckets {
		h[b.Index] += b.Count
	}
}

// minus returns h - base, dropping buckets that did not grow.
func (h hist) minus(base hist) hist {
	out := make(hist, len(h))
	for i, c := range h {
		if d := c - base[i]; d > 0 {
			out[i] = d
		}
	}
	return out
}

func (h hist) count() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// quantile estimates the q-quantile (0..1) by interpolating inside the
// target bucket, as metrics.BucketSnapshot.Quantile does; 0 when empty.
func (h hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	idx := make([]int, 0, len(h))
	for i := range h {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	target := int64(q*float64(n-1)) + 1
	var cum int64
	for _, i := range idx {
		c := h[i]
		if cum+c >= target {
			lo, hi := metrics.BucketBounds(i)
			return float64(lo) + float64(target-cum)/float64(c)*float64(hi-lo)
		}
		cum += c
	}
	return 0
}
