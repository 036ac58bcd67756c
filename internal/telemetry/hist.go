package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: HDR-style base-2 buckets with histSubBits of
// sub-bucket resolution. Values below 2^(histSubBits+1) are exact; above
// that each octave splits into 2^histSubBits buckets, bounding relative
// error by 2^-histSubBits (~6%) — plenty for cycle-latency percentiles
// while keeping the bucket array small and fixed.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// numBuckets covers every uint64: the top value (msb 63) lands at
	// index (63-histSubBits)<<histSubBits + (histSub-1).
	numBuckets = (64-histSubBits)<<histSubBits + histSub
)

// Histogram is a fixed-bucket cycle histogram. Observations and reads are
// lock-free (atomic adds plus CAS min/max), so record sites are race-clean
// and allocation-free. An observation adds to the sum and to one bucket
// only; Count sums the buckets when read. Sum and Count are exact, so
// Mean() reproduces the raw-sum statistics the histogram replaces
// bit-for-bit; quantiles are bucket estimates.
type Histogram struct {
	sum     atomic.Uint64
	min     atomic.Uint64 // stored as value+1 so 0 means "empty"
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub*2 {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	return (msb-histSubBits)<<histSubBits + int(v>>(uint(msb)-histSubBits))
}

// bucketLower returns the smallest value in bucket i.
func bucketLower(i int) uint64 {
	if i < histSub*2 {
		return uint64(i)
	}
	octave := i >> histSubBits
	sub := uint64(i&(histSub-1)) + histSub
	return sub << (uint(octave) - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	h.updateMin(v)
	h.updateMax(v)
}

func (h *Histogram) updateMin(v uint64) {
	for {
		cur := h.min.Load()
		if cur != 0 && cur-1 <= v {
			return
		}
		if h.min.CompareAndSwap(cur, v+1) {
			return
		}
	}
}

func (h *Histogram) updateMax(v uint64) {
	for {
		cur := h.max.Load()
		if cur >= v {
			return
		}
		if h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LocalHist is the single-writer companion to Histogram for hot record
// sites: plain counters, no atomics, so an Observe is a handful of
// increments the owner goroutine pays alone. Drain merges the recorded
// distribution into a shared Histogram at flush time — millions of
// dispatch-loop observations cost one batch of atomic adds, instead of
// CAS traffic per observation. The zero value is ready to use.
type LocalHist struct {
	count, sum uint64
	min, max   uint64 // min stored as value+1 so 0 means "empty"
	buckets    [numBuckets]uint64
}

// Observe records one value.
func (l *LocalHist) Observe(v uint64) {
	l.count++
	l.sum += v
	l.buckets[bucketIndex(v)]++
	if l.min == 0 || v+1 < l.min {
		l.min = v + 1
	}
	if v > l.max {
		l.max = v
	}
}

// Drain merges everything recorded since the last Drain into h (nil:
// discard) and resets the local state.
func (l *LocalHist) Drain(h *Histogram) {
	if l.count == 0 {
		return
	}
	for i := range l.buckets {
		c := l.buckets[i]
		if c == 0 {
			continue
		}
		l.buckets[i] = 0
		if h != nil {
			h.buckets[i].Add(c)
		}
	}
	if h != nil {
		h.sum.Add(l.sum)
		h.updateMin(l.min - 1)
		h.updateMax(l.max)
	}
	l.count, l.sum, l.min, l.max = 0, 0, 0, 0
}

// HistBucket is one non-empty bucket of an exported histogram: Lower is
// the smallest value the bucket covers, Count the observations in it.
type HistBucket struct {
	Lower uint64 `json:"lower"`
	Count uint64 `json:"count"`
}

// Export returns the non-empty buckets in ascending value order — the
// serializable view artifact writers (CI latency histograms) consume.
func (h *Histogram) Export() []HistBucket {
	if h == nil {
		return nil
	}
	var out []HistBucket
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			out = append(out, HistBucket{Lower: bucketLower(i), Count: c})
		}
	}
	return out
}

// Count returns the number of observations: the sum of the buckets, so
// it costs a pass over them where Observe saves an atomic add.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the exact arithmetic mean (NaN-free: 0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	v := h.min.Load()
	if v == 0 {
		return 0
	}
	return v - 1
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (0 < q <= 1) by rank interpolation
// within the containing bucket, clamped to the observed min/max so exact
// extremes (p100 = Max) stay exact.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := bucketLower(i)
			hi := lo
			if i+1 < numBuckets {
				hi = bucketLower(i+1) - 1
			}
			// Interpolate by rank position within this bucket.
			frac := float64(rank-cum-1) / float64(c)
			v := lo + uint64(frac*float64(hi-lo))
			return clamp(v, h.Min(), h.Max())
		}
		cum += c
	}
	return h.Max()
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
