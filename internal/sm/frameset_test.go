package sm

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// The owned-frame bitset behaves exactly like a map[uint64]bool model
// under random add / remove / has sequences: the same membership, the
// same count, and the same members in ascending order from any starting
// frame. Frames span 20 words and the first member sits mid-range, so the
// set grows both upward and below its first word.
func TestFrameSetMatchesModel(t *testing.T) {
	const nframes, nops = 20 * 64, 20000
	base := uint64(0x8800_0000)
	pa := func(i int) uint64 { return base + uint64(i)*isa.PageSize }
	var s frameSet
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(1))
	s.add(pa(nframes / 2))
	model[pa(nframes/2)] = true
	added, removed := 1, 0
	for op := 0; op < nops; op++ {
		f := pa(rng.Intn(nframes))
		switch k := rng.Intn(10); {
		case k < 5:
			s.add(f)
			model[f] = true
			added++
		case k < 9:
			if model[f] {
				removed++
			}
			s.remove(f)
			delete(model, f)
		}
		if got := s.has(f); got != model[f] {
			t.Fatalf("op %d: has(%#x) = %v, model %v", op, f, got, model[f])
		}
		if s.len() != len(model) {
			t.Fatalf("op %d: len %d, model %d", op, s.len(), len(model))
		}
		if op%97 != 0 {
			continue
		}
		// Ascending iteration from a random start, and from zero.
		want := make([]uint64, 0, len(model))
		for m := range model {
			want = append(want, m)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		from := pa(rng.Intn(nframes))
		i := sort.Search(len(want), func(i int) bool { return want[i] >= from })
		for _, start := range []struct {
			pa   uint64
			want []uint64
		}{{0, want}, {from, want[i:]}} {
			var got []uint64
			for m, ok := s.next(start.pa); ok && len(got) <= len(start.want); m, ok = s.next(m + isa.PageSize) {
				got = append(got, m)
			}
			if len(got) != len(start.want) {
				t.Fatalf("op %d: iteration from %#x visits %d frames, model %d", op, start.pa, len(got), len(start.want))
			}
			for j := range got {
				if got[j] != start.want[j] {
					t.Fatalf("op %d: member %d from %#x is %#x, model %#x", op, j, start.pa, got[j], start.want[j])
				}
			}
		}
	}
	for _, f := range []uint64{0, base - isa.PageSize, pa(nframes), ^uint64(0)} {
		if s.has(f) {
			t.Errorf("has(%#x) outside every added frame", f)
		}
	}
	if added < nops/4 || removed < nops/8 {
		t.Errorf("sequence too tame: %d adds, %d removals of members", added, removed)
	}
}

// TestDestroyZeroesOwnedFrames: destroy scrubs every frame the CVM owned —
// image pages, demand-faulted pages and stage-2 table frames alike.
func TestDestroyZeroesOwnedFrames(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase+0x40_0000)) // a fresh 2 MiB region
		p.LI(asm.T1, 8)
		p.LI(asm.T2, isa.PageSize)
		p.Label("touch")
		p.SD(asm.T2, asm.T0, 0)
		p.ADD(asm.T0, asm.T0, asm.T2)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "touch")
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("exit = %v, want shutdown", info.Reason)
	}
	c := f.s.life.cvms[id]
	var frames []uint64
	dirty := 0
	zero := make([]byte, isa.PageSize)
	for pa, ok := c.owned.next(0); ok; pa, ok = c.owned.next(pa + isa.PageSize) {
		frames = append(frames, pa)
		if page, err := f.m.RAM.Read(pa, isa.PageSize); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(page, zero) {
			dirty++
		}
	}
	if len(frames) != c.owned.len() || dirty < 8 {
		t.Fatalf("%d frames visited of %d owned, %d non-zero; want all, and >= 8 non-zero",
			len(frames), c.owned.len(), dirty)
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	for _, pa := range frames {
		page, err := f.m.RAM.Read(pa, isa.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, zero) {
			t.Errorf("frame %#x not scrubbed by destroy", pa)
		}
	}
	if found := f.s.Audit(); len(found) != 0 {
		t.Errorf("audit findings %v", found)
	}
}
