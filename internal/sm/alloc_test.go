package sm

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// TestDemandFaultAllocs pins the host cost of the E3 path: once warm, a
// demand fault on a frame whose RAM page is already materialized — the
// guest's store takes a stage-2 walk fault, the SM allocates a frame from
// the vCPU's page cache, zero-fills it unless it is clean, maps it, and
// the store retries — allocates nothing. Each round is one RunVCPU: the
// resume from the last MMIO exit, one demand fault, and the next MMIO
// exit, whose round trip TestMMIOExitRoundTripAllocs (internal/hv) pins
// at zero on its own. The first CVM faults on frames never owned before;
// the second, built after the first is destroyed, on the frames its
// destroy scrubbed and marked clean.
//
// Measured with runtime.MemStats: 15 objects (9 KB) over 1,000 faults,
// all amortized growth of three records, which AllocsPerRun's per-run
// integer average reads as 0: the CVM's private-leaf record (GPA -> PA,
// for snapshots and audits; one 4 KiB leaf per 2 MiB of GPAs plus its
// index), the page cache's retired-block list (one entry per 64 frames)
// and the CVM's owned frameSet (one word per 64 frames).
func TestDemandFaultAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	p := asm.New(PrivateBase)
	p.LI(asm.T0, int64(PrivateBase+0x10_0000)) // untouched private pages
	p.LI(asm.T1, 0x1000_0000)                  // MMIO window
	p.LI(asm.T2, isa.PageSize)
	p.Label("loop")
	p.SD(asm.T2, asm.T0, 0) // demand fault
	p.LD(asm.A0, asm.T1, 0) // MMIO exit
	p.ADD(asm.T0, asm.T0, asm.T2)
	p.J("loop")
	// Materialize every pool page, so no fault pays for a fresh host page.
	for pa := uint64(poolBase); pa < poolBase+poolSize; pa += isa.PageSize {
		if err := f.m.RAM.WriteUint64(pa, 1); err != nil {
			t.Fatal(err)
		}
	}
	faults := func() uint64 { return f.s.Stats.FaultStage[StageCache] + f.s.Stats.FaultStage[StageBlock] }
	round := func() {
		before := faults()
		if info := f.run(); info.Reason != ExitMMIORead {
			t.Fatalf("exit = %v, want mmio-read", info.Reason)
		}
		if n := faults() - before; n != 1 {
			t.Fatalf("%d demand faults in one round, want 1", n)
		}
	}
	for _, cvm := range []string{"fresh frames", "scrubbed frames"} {
		f.buildCVM(p)
		for i := 0; i < 4; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("demand fault on %s allocates %v objects, want 0", cvm, allocs)
		}
		if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
			t.Fatal(err)
		}
		if cleanFrames(f.s) == 0 {
			t.Fatalf("destroying the CVM on %s left no clean frame", cvm)
		}
	}
}
