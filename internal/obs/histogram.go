package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket log-scale histogram with a lock-free Observe.
// Buckets cover the full positive int64 range with 4 sub-buckets per octave
// (relative bucket width 25%), which is plenty for latency and size
// distributions; values <= 0 are counted separately as "zeros".  Observe is
// a handful of atomic adds plus a CAS loop for the running maximum, so hot
// paths can hold a *Histogram and observe without locking.
type Histogram struct {
	unit    string
	zeros   counter64
	count   counter64
	sum     counter64
	max     maxTracker
	buckets [numBuckets]counter64
}

// numBuckets: values 1..3 get exact buckets 1..3 (index = value), larger
// values map to (exp*4 + top-2-mantissa-bits) - 4 + 4.  Index 0 is unused by
// positive values; the top index for v = 2^63-1 is 63*4+3-4+4 = 255.
const numBuckets = 256

// bucketOf maps a positive value to its bucket index.
func bucketOf(v int64) int {
	if v < 4 {
		return int(v) // 1..3 exact
	}
	u := uint64(v)
	e := bits.Len64(u) - 1 // floor(log2), >= 2
	m := (u >> uint(e-2)) & 3
	return e*4 + int(m) - 4
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < 4 {
		return int64(i), int64(i) + 1
	}
	e := (i + 4) / 4
	m := int64(i+4) % 4
	width := int64(1) << uint(e-2)
	lo = (4 + m) << uint(e-2)
	hi = lo + width
	if hi < lo { // top bucket: lo+width overflows int64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.add(1)
	if v <= 0 {
		h.zeros.add(1)
		return
	}
	h.sum.add(v)
	h.buckets[bucketOf(v)].add(1)
	h.max.update(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// snap captures the histogram into a named HistSnap.
func (h *Histogram) snap(name string) HistSnap {
	s := HistSnap{Name: name, Unit: h.unit}
	s.Zeros = h.zeros.load()
	s.Count = h.count.load()
	s.Sum = h.sum.load()
	s.Max = h.max.load()
	for i := range h.buckets {
		if n := h.buckets[i].load(); n != 0 {
			s.Buckets = append(s.Buckets, BucketSnap{Index: uint8(i), Count: n})
		}
	}
	return s
}

// HistSnap is a histogram captured at one instant.  Only non-empty buckets
// are kept, in ascending index order.
type HistSnap struct {
	Name    string
	Unit    string
	Zeros   int64
	Count   int64
	Sum     int64
	Max     int64
	Buckets []BucketSnap
}

// BucketSnap is one non-empty bucket in a HistSnap.
type BucketSnap struct {
	Index uint8
	Count int64
}

func (s HistSnap) clone() HistSnap {
	s.Buckets = append([]BucketSnap(nil), s.Buckets...)
	return s
}

// merge folds other's observations into s (same-name histograms from
// different nodes).  Bucket lists stay sorted by index.
func (s *HistSnap) merge(other HistSnap) {
	s.Zeros += other.Zeros
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	if s.Unit == "" {
		s.Unit = other.Unit
	}
	merged := make([]BucketSnap, 0, len(s.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Index < other.Buckets[j].Index):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].Index < s.Buckets[i].Index:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			merged = append(merged, BucketSnap{Index: s.Buckets[i].Index, Count: s.Buckets[i].Count + other.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}

// Quantile estimates the p-quantile (0 <= p <= 1) by linear interpolation
// within the containing bucket, clamped to the observed maximum.
func (s HistSnap) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	cum := s.Zeros
	if cum >= target {
		return 0
	}
	for _, b := range s.Buckets {
		if cum+b.Count >= target {
			lo, hi := bucketBounds(int(b.Index))
			if hi > s.Max && s.Max >= lo {
				hi = s.Max
			}
			frac := float64(target-cum) / float64(b.Count)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += b.Count
	}
	return float64(s.Max)
}

// Mean returns the mean of positive observations (zeros dilute it).
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// format renders a bucket-interpolated value in the histogram's unit.
func (s HistSnap) format(v float64) string {
	switch s.Unit {
	case "ns":
		return time.Duration(v).Round(time.Nanosecond).String()
	case "B":
		return fmt.Sprintf("%.0fB", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

type counter64 struct{ v atomic.Int64 }

func (c *counter64) add(d int64) { c.v.Add(d) }
func (c *counter64) load() int64 { return c.v.Load() }

type maxTracker struct{ v atomic.Int64 }

func (m *maxTracker) update(x int64) {
	for {
		cur := m.v.Load()
		if x <= cur || m.v.CompareAndSwap(cur, x) {
			return
		}
	}
}
func (m *maxTracker) load() int64 { return m.v.Load() }
