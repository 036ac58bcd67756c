package sm

import (
	"math/rand"
	"slices"
	"testing"

	"zion/internal/isa"
)

// TestGPAMapModel drives gpaMap and a map[uint64]uint64 with the same
// random sets and deletes, and requires the same count and, after every
// step, the same records in ascending GPA order. GPAs cluster in a few
// 2 MiB spans, spread over leaves opened in random order, and include
// both ends of a leaf; PA 0 is a legal value.
func TestGPAMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spans := []uint64{PrivateBase >> 21, PrivateBase>>21 + 1, PrivateBase>>21 + 7, 0, 1 << 20}
	gpa := func() uint64 {
		slot := uint64(rng.Intn(512))
		switch rng.Intn(8) {
		case 0:
			slot = 0
		case 1:
			slot = 511
		}
		return spans[rng.Intn(len(spans))]<<21 | slot<<isa.PageShift
	}
	var m gpaMap
	model := make(map[uint64]uint64)
	for step := 0; step < 2000; step++ {
		g := gpa()
		if rng.Intn(3) < 2 {
			pa := uint64(rng.Intn(1<<16)) << isa.PageShift
			m.set(g, pa)
			model[g] = pa
		} else {
			m.delete(g)
			delete(model, g)
		}
		if m.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, m.len(), len(model))
		}
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		i := 0
		for g, pa, ok := m.next(0); ok; g, pa, ok = m.next(g + isa.PageSize) {
			if i >= len(want) || g != want[i] || pa != model[g] {
				t.Fatalf("step %d: record %d is %#x -> %#x; want %d records %#x", step, i, g, pa, len(want), want)
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("step %d: iteration visited %d records, want %d", step, i, len(want))
		}
	}
	// next from an arbitrary page lands on the first record at or above it.
	for _, from := range []uint64{0, PrivateBase, PrivateBase + 5<<isa.PageShift, 1 << 41} {
		g, _, ok := m.next(from)
		var want uint64
		found := false
		for k := range model {
			if k >= from && (!found || k < want) {
				want, found = k, true
			}
		}
		if ok != found || (ok && g != want) {
			t.Errorf("next(%#x) = %#x, %v; want %#x, %v", from, g, ok, want, found)
		}
	}
}
