package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestHistogramCountFromBuckets: Observe keeps no count of its own, so
// Count, the buckets' sum, must still be exact under concurrent
// observers, extremes included, and Mean the exact sum over it.
func TestHistogramCountFromBuckets(t *testing.T) {
	h := NewHistogram()
	const workers, each = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(uint64(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	var l LocalHist
	l.Observe(0)
	l.Observe(1 << 40)
	l.Drain(h)
	h.Observe(1 << 50)
	n := uint64(workers*each + 3)
	sum := uint64(workers*each*(workers*each-1)/2 + 1<<40 + 1<<50)
	if h.Count() != n || h.Sum() != sum {
		t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count(), h.Sum(), n, sum)
	}
	if got, want := h.Mean(), float64(sum)/float64(n); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

// BenchmarkHistogramObserve times one Observe: the record cost of the
// world switch's entry and exit latency histograms.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i & 0xFFF))
	}
}

// TestQuantileEmpty: an empty histogram answers 0 for every quantile
// (and for min/max/mean), never panicking or dividing by zero.
func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram min/max/mean = %d/%d/%v, want zeros",
			h.Min(), h.Max(), h.Mean())
	}
}

// TestQuantileSingleSample: with one observation, every quantile is that
// exact value — the clamp to observed min/max leaves no room for bucket
// estimation error.
func TestQuantileSingleSample(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 1000, 1 << 40} {
		h := NewHistogram()
		h.Observe(v)
		for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single sample %d: Quantile(%v) = %d, want %d", v, q, got, v)
			}
		}
	}
}

// TestQuantileOneIsMax: q=1.0 must return the exact maximum regardless of
// bucket geometry, because extremes are tracked exactly.
func TestQuantileOneIsMax(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	var max uint64
	for i := 0; i < 1000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		if v > max {
			max = v
		}
		h.Observe(v)
	}
	if got := h.Quantile(1.0); got != max {
		t.Errorf("Quantile(1.0) = %d, want exact max %d", got, max)
	}
	// Out-of-range q clamps rather than misbehaving.
	if got := h.Quantile(2.0); got != max {
		t.Errorf("Quantile(2.0) = %d, want clamp to max %d", got, max)
	}
}

// TestQuantileAgainstSortedReference cross-checks p50/p99 against the
// exact sorted-slice quantile on seeded random data. The bucket geometry
// bounds relative error by 2^-histSubBits (~6%) above the exact range
// (values < 2*histSub are bucketed exactly).
func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{10, 100, 10_000} {
		h := NewHistogram()
		vals := make([]uint64, n)
		for i := range vals {
			// Mix magnitudes so both exact and estimated buckets are hit.
			vals[i] = uint64(rng.Int63n(1 << uint(4+rng.Intn(20))))
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.50, 0.99} {
			rank := int(q*float64(n)+0.5) - 1
			if rank < 0 {
				rank = 0
			}
			want := vals[rank]
			got := h.Quantile(q)
			// Exact below the sub-bucket threshold; ~6% relative plus one
			// rank of slack above it.
			tol := uint64(0)
			if want >= 2*histSub {
				tol = want/histSub + 1
			}
			lo, hi := want-min64(want, tol), want+tol
			if got < lo || got > hi {
				t.Errorf("n=%d q=%v: Quantile = %d, sorted reference %d (tolerance ±%d)",
					n, q, got, want, tol)
			}
		}
	}
}

// TestLocalHistDrain: a LocalHist drained into a Histogram must be
// indistinguishable from observing the same values on the Histogram
// directly — count, sum, min, max, and every quantile — and Drain must
// reset the local state so a second drain adds nothing.
func TestLocalHistDrain(t *testing.T) {
	direct := NewHistogram()
	shared := NewHistogram()
	var l LocalHist
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Int63n(1 << uint(1+rng.Intn(24))))
		direct.Observe(v)
		l.Observe(v)
		if i == 2500 {
			l.Drain(shared) // split across two drains: merging must compose
		}
	}
	l.Drain(shared)
	if shared.Count() != direct.Count() || shared.Sum() != direct.Sum() {
		t.Fatalf("drained count/sum %d/%d, direct %d/%d",
			shared.Count(), shared.Sum(), direct.Count(), direct.Sum())
	}
	if shared.Min() != direct.Min() || shared.Max() != direct.Max() {
		t.Fatalf("drained min/max %d/%d, direct %d/%d",
			shared.Min(), shared.Max(), direct.Min(), direct.Max())
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1.0} {
		if shared.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("Quantile(%v): drained %d, direct %d", q, shared.Quantile(q), direct.Quantile(q))
		}
	}
	// Drained state is reset: another drain is a no-op.
	l.Drain(shared)
	if shared.Count() != direct.Count() {
		t.Fatalf("second drain changed count to %d", shared.Count())
	}
	// A nil target discards but still resets.
	l.Observe(7)
	l.Drain(nil)
	l.Drain(shared)
	if shared.Count() != direct.Count() {
		t.Fatalf("nil drain leaked state: count %d", shared.Count())
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
