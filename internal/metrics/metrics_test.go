package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10000 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []int64) bool {
		var h BucketHist
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.Snapshot()
		q1 := s.Quantile(0.25)
		q2 := s.Quantile(0.5)
		q3 := s.Quantile(0.99)
		return q1 <= q2 && q2 <= q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesRecordsInOrder(t *testing.T) {
	s := NewSeries("queue_depth")
	base := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		s.Record(base.Add(time.Duration(i)*time.Second), float64(i*10))
	}
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[4].V != 40 {
		t.Fatalf("last = %v", pts[4])
	}
	if s.MaxValue() != 40 {
		t.Fatalf("max = %v", s.MaxValue())
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("counter not shared")
	}
	g := r.Gauge("g")
	g.Set(7)
	if r.Gauge("g").Value() != 7 {
		t.Fatal("gauge not shared")
	}
	r.BucketHist("h").Observe(1)
	if r.BucketHist("h").Count() != 1 {
		t.Fatal("histogram not shared")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("g").Set(1)
	lines := r.Snapshot()
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("not sorted: %v", lines)
		}
	}
}
