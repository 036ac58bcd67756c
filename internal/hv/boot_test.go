package hv

import (
	"encoding/hex"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
)

// BenchmarkBoot times the fixed cost a benchmark round pays before its
// first guest instruction: boot one hart over 512 MiB of RAM, register a
// 64 MiB secure pool (256 blocks) and create one CVM from a one-page
// image. It reports allocations per boot.
func BenchmarkBoot(b *testing.B) {
	const ram, pool = 512 << 20, 64 << 20
	img := guestProgram(func(p *asm.Program) { p.LI(asm.S0, 1) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := platform.New(1, ram)
		monitor, err := sm.New(m, sm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		k := New(m, monitor, platform.RAMBase+0x0100_0000, ram-0x0200_0000)
		h := m.Harts[0]
		h.Mode = isa.ModeS
		if err := k.RegisterSecurePool(h, pool); err != nil {
			b.Fatal(err)
		}
		if _, err := k.CreateCVM(h, "boot", img, GuestRAMBase); err != nil {
			b.Fatal(err)
		}
	}
}

// The launch measurement of a known image is pinned: it hashes every
// staged page, so a change to how CreateCVM stages pages or how the SM
// folds them into the digest that alters a single byte shows here. The
// second image ends in a short chunk and follows a longer image of other
// bytes on the same stack, so the staging page's stale tail must read as
// zeros.
func TestCVMMeasurementPinned(t *testing.T) {
	_, monitor, k, h := newStack(t, sm.Config{})
	pattern := func(n int, seed byte) []byte {
		img := make([]byte, n)
		for i := range img {
			img[i] = seed + byte(i*7)
		}
		return img
	}
	for _, c := range []struct {
		name string
		img  []byte
		want string
	}{
		{"three-pages", pattern(3*4096, 0x5a), "620d5594937329f9f26639b25624eb9183e8038817c210ed80ff3fdcb27bab44"},
		{"short-tail", pattern(4096+100, 0x13), "45ddc2ac5147a005ccbb88332737fa5480cffd29701ef877e9032782b52bf059"},
	} {
		vm, err := k.CreateCVM(h, c.name, c.img, GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		m, err := monitor.Measurement(vm.CVMID)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(m); got != c.want {
			t.Errorf("%s: measurement %s, want %s", c.name, got, c.want)
		}
	}
}
