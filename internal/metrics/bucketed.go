package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// BucketHist is the package's one histogram, a lock-free log-linear one
// built for the 0-alloc data-plane hot paths: Observe is three
// uncontended atomic adds into a fixed bucket array — no mutex, no map
// lookup, no allocation, constant time regardless of the value. It
// trades exact samples for bounded relative error: each power-of-two
// range is split into 16 linear sub-buckets, so any quantile is reported
// within 1/16 (6.25%) of the true value. Values are unit-agnostic int64s; by
// convention metric names carry the unit suffix (_ns, _bytes, _events).
//
// The first bhSub buckets are exact (width 1) so tiny distributions —
// batch sizes of 1..15 events — lose no resolution at all. Values at or
// above 2^(bhMaxExp+1) (about 18 minutes when observing nanoseconds)
// clamp into the last bucket.
type BucketHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [bhNumBuckets]atomic.Int64
}

const (
	bhSubBits = 4
	// bhSub linear sub-buckets per power-of-two range.
	bhSub = 1 << bhSubBits
	// bhMaxExp is the exponent of the last resolved power-of-two range.
	bhMaxExp = 39
	// bhNumBuckets: bhSub exact unit buckets plus bhSub per octave for
	// exponents bhSubBits..bhMaxExp.
	bhNumBuckets = (bhMaxExp - bhSubBits + 2) * bhSub
)

// NumBuckets is the fixed bucket count of every BucketHist, exported so
// wire codecs and merge buffers can size arrays without reaching into
// package internals.
const NumBuckets = bhNumBuckets

// bucketIndex maps a value to its bucket in constant time: exact for
// 0..15, then the top 4 mantissa bits below the leading 1 select the
// linear sub-bucket within the value's power-of-two range.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < bhSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	if exp > bhMaxExp {
		return bhNumBuckets - 1
	}
	sub := (u >> uint(exp-bhSubBits)) & (bhSub - 1)
	return (exp-bhSubBits+1)*bhSub + int(sub)
}

// BucketBounds returns bucket i's value range [lo, hi).
func BucketBounds(i int) (lo, hi int64) {
	if i < 0 {
		return 0, 0
	}
	if i >= bhNumBuckets {
		i = bhNumBuckets - 1
	}
	if i < bhSub {
		return int64(i), int64(i) + 1
	}
	block := i / bhSub // >= 1
	sub := i % bhSub
	exp := uint(block + bhSubBits - 1)
	lo = int64(1)<<exp + int64(sub)<<(exp-bhSubBits)
	return lo, lo + int64(1)<<(exp-bhSubBits)
}

// Observe records one value. Safe for unsynchronized concurrent use;
// never allocates.
func (h *BucketHist) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *BucketHist) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *BucketHist) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *BucketHist) Sum() int64 { return h.sum.Load() }

// Snapshot captures the histogram's current state. The capture is
// weakly consistent: observations racing the snapshot may be partially
// included (count without bucket or vice versa), which is fine for
// monitoring — every completed observation before the call is included,
// and the skew is at most the handful of in-flight Observes.
func (h *BucketHist) Snapshot() BucketSnapshot {
	var s BucketSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketSnapshot is a point-in-time copy of a BucketHist, the unit of
// cross-broker aggregation: snapshots from different brokers merge by
// plain addition, and quantiles are answered on the merged result.
type BucketSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [bhNumBuckets]int64
}

// Merge adds o's observations into s.
func (s *BucketSnapshot) Merge(o *BucketSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the mean observed value, 0 when empty.
func (s *BucketSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0..1) estimated by linear
// interpolation within the target bucket. The error is bounded by the
// bucket width: at most 1/16 of the value.
func (s *BucketSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	target := int64(q*float64(s.Count-1)) + 1
	var cum int64
	for i := range s.Buckets {
		c := s.Buckets[i]
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := BucketBounds(i)
			frac := float64(target-cum) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	// Racy snapshot undercount: fall back to the top non-empty bucket.
	for i := bhNumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			_, hi := BucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}
