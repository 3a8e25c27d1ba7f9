package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	// Every observed value must land in a bucket whose bounds contain it.
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<39 - 1, 1 << 39}
	for _, v := range vals {
		i := bucketIndex(v)
		lo, hi := BucketBounds(i)
		if v < lo || v >= hi {
			t.Fatalf("value %d -> bucket %d [%d,%d)", v, i, lo, hi)
		}
	}
	// Negative values clamp to bucket 0, oversized to the last bucket.
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative value bucket = %d", bucketIndex(-5))
	}
	if bucketIndex(1<<55) != bhNumBuckets-1 {
		t.Fatalf("huge value bucket = %d", bucketIndex(1<<55))
	}
}

func TestBucketBoundsContiguous(t *testing.T) {
	for i := 1; i < bhNumBuckets; i++ {
		_, prevHi := BucketBounds(i - 1)
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty range [%d,%d)", i, lo, hi)
		}
	}
}

func TestBucketHistConcurrentObserve(t *testing.T) {
	var h BucketHist
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", inBuckets, s.Count)
	}
}

// TestBucketHistQuantileAccuracy checks the estimated quantiles against
// the exact sample quantiles on known distributions; the log-linear
// layout guarantees relative error within one sub-bucket (1/16).
func TestBucketHistQuantileAccuracy(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) int64{
		"uniform":     func(r *rand.Rand) int64 { return r.Int63n(1_000_000) },
		"exponential": func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 50_000) },
		"bimodal": func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 900_000 + r.Int63n(100_000)
			}
			return 1_000 + r.Int63n(1_000)
		},
	}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var h BucketHist
			exact := make([]int64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := gen(rng)
				h.Observe(v)
				exact = append(exact, v)
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			s := h.Snapshot()
			for _, q := range []float64{0.5, 0.9, 0.99} {
				want := float64(exact[int(q*float64(len(exact)-1))])
				got := s.Quantile(q)
				// One sub-bucket of relative error plus a unit of slack for
				// the tiny exact buckets.
				tol := want/8 + 2
				if math.Abs(got-want) > tol {
					t.Fatalf("q%.2f = %.0f, exact %.0f (tol %.0f)", q, got, want, tol)
				}
			}
		})
	}
}

func TestBucketSnapshotMerge(t *testing.T) {
	// Merging per-broker snapshots must equal one histogram that saw
	// every observation.
	rng := rand.New(rand.NewSource(7))
	var a, b, all BucketHist
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 22)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	merged := a.Snapshot()
	bs := b.Snapshot()
	merged.Merge(&bs)
	want := all.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", merged.Count, merged.Sum, want.Count, want.Sum)
	}
	if merged.Buckets != want.Buckets {
		t.Fatal("merged buckets differ from combined histogram")
	}
	if got, want := merged.Quantile(0.5), want.Quantile(0.5); got != want {
		t.Fatalf("merged p50 = %v, combined p50 = %v", got, want)
	}
}

func TestBucketHistEmpty(t *testing.T) {
	var h BucketHist
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestSeriesBounded(t *testing.T) {
	s := NewSeries("leak")
	for i := 0; i < 100000; i++ {
		s.Record(time.Unix(int64(i), 0), float64(i))
	}
	pts := s.Points()
	if len(pts) >= maxSeriesPoints {
		t.Fatalf("series grew to %d points, cap is %d", len(pts), maxSeriesPoints)
	}
	// Downsampling keeps temporal coverage: first point survives and the
	// retained points stay in record order.
	if pts[0].V != 0 {
		t.Fatalf("first retained point = %v", pts[0].V)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V <= pts[i-1].V {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

func TestRegistryExportAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("fabric.produced").Add(3)
	r.Gauge("wire.sessions_open").Set(2)
	r.BucketHist("fabric.produce_ns").Observe(1500)
	ex := r.Export()
	if len(ex.Counters) != 1 || len(ex.Gauges) != 1 || len(ex.Hists) != 1 {
		t.Fatalf("export shape: %+v", ex)
	}
	var sb strings.Builder
	WritePrometheus(&sb, PromSource{Labels: `broker="0"`, Reg: r})
	out := sb.String()
	for _, want := range []string{
		"# TYPE octopus_fabric_produced counter",
		`octopus_fabric_produced{broker="0"} 3`,
		`octopus_wire_sessions_open{broker="0"} 2`,
		"# TYPE octopus_fabric_produce_ns histogram",
		`octopus_fabric_produce_ns_bucket{broker="0",le="+Inf"} 1`,
		"octopus_fabric_produce_ns_count{broker=\"0\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The same metric from a second source must not repeat its TYPE line.
	var sb2 strings.Builder
	WritePrometheus(&sb2, PromSource{Labels: `broker="0"`, Reg: r}, PromSource{Labels: `broker="1"`, Reg: r})
	if strings.Count(sb2.String(), "# TYPE octopus_fabric_produced counter") != 1 {
		t.Fatalf("TYPE line repeated:\n%s", sb2.String())
	}
}
