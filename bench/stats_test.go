package main

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wire"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLatencyRefusesSmallSamples(t *testing.T) {
	small := &recorder{latMs: make([]float64, 999)}
	if _, _, err := latency(false, small); err == nil {
		t.Error("999 samples have fewer than ten beyond the 99th percentile; want an error")
	}
	if _, _, err := latency(true, small); err != nil {
		t.Errorf("a lenient run takes what samples there are: %v", err)
	}
}

// Three chunks of 1000: the middle one is disturbed (everything 100x
// slower); the medians over the chunks do not move.
func TestLatencyReportsMedianOverChunks(t *testing.T) {
	r := &recorder{}
	for chunk := 0; chunk < 3; chunk++ {
		for i := 0; i < 1000; i++ {
			v := float64(i)
			if chunk == 1 {
				v *= 100
			}
			r.latMs = append(r.latMs, v)
		}
	}
	p50, p99, err := latency(false, r, small0())
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 499.5 || math.Abs(p99-989.01) > 1e-9 {
		t.Errorf("p50, p99 = %v, %v, want 499.5, 989.01", p50, p99)
	}
}

// small0 is a recorder with too few samples for a chunk: it adds none.
func small0() *recorder { return &recorder{latMs: []float64{1e9}} }

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 25: 17.5} {
		if got := percentile(s, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(vs, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 7, 3, 5, 2, 8, 4, 10, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestHistDeltaAndQuantile(t *testing.T) {
	// Buckets 0..15 of the log-linear layout are exact: bucket i = value i.
	before := hist{}
	before.add(&wire.StatHist{Buckets: []wire.StatBucket{{Index: 2, Count: 5}}})
	after := hist{}
	after.add(&wire.StatHist{Buckets: []wire.StatBucket{{Index: 2, Count: 5}, {Index: 4, Count: 3}, {Index: 8, Count: 1}}})
	d := after.minus(before)
	if d.count() != 4 {
		t.Fatalf("delta holds %d observations, want 4", d.count())
	}
	lo, hi := metrics.BucketBounds(4)
	if got := d.quantile(0.5); got < float64(lo) || got > float64(hi) {
		t.Errorf("median %v outside bucket 4 [%d, %d)", got, lo, hi)
	}
	if got := (hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v, want 0", got)
	}
}
