package hart

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// The superblock dispatch loop is the hottest code in the simulator: once
// the decoded page and micro-TLB entries are warm, driving Run over
// straight-line code must not allocate at all. A single allocation per
// block would dominate the event-horizon win the engine exists for.
func TestRunBatchSuperblockZeroAllocs(t *testing.T) {
	h := newHart(t)
	h.SetTraces(false) // every instruction through execute(); TestTraceDispatchAllocs pins pre-bound ops
	clk := &fakeCLINT{h: h}

	// An infinite loop of straight-line ALU and memory work: long blocks
	// separated by one JAL boundary.
	p := asm.New(ramBase)
	p.LIU(20, ramBase+dataOff)
	p.LI(5, 1)
	p.Label("top")
	for i := 0; i < 40; i++ {
		p.ADD(6, 6, 5)
		p.XOR(7, 7, 6)
		p.SD(6, 20, 0)
		p.LD(8, 20, 0)
		p.MUL(9, 8, 5)
	}
	p.J("top")
	load(t, h, ramBase, p)

	// Warm up: decode the page and fill the fetch/read/write micro-TLB
	// entries.
	if n, _ := h.Run(clk, 20000); n == 0 {
		t.Fatal("warm-up run made no progress")
	}
	if st := h.FastPathStats(); st.SBHits == 0 || st.BlockBuilds == 0 {
		t.Fatalf("superblock engine not engaged: %+v", st)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if n, _ := h.Run(clk, 4096); n != 4096 {
			t.Fatalf("run stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("superblock dispatch allocates %.1f allocs/op, want 0", allocs)
	}

	// The armed-deadline variant exercises the horizon arithmetic on every
	// block entry; it must be just as allocation-free.
	clk.mtimecmp, clk.armed = h.Cycles+isa.PageSize, true // far enough to never cut off
	allocs = testing.AllocsPerRun(50, func() {
		clk.mtimecmp += 1 << 20
		if n, _ := h.Run(clk, 4096); n != 4096 {
			t.Fatalf("armed run stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("armed superblock dispatch allocates %.1f allocs/op, want 0", allocs)
	}

	// A tight loop on the trace tier chains every taken branch inside the
	// dispatch loop; with a live deadline each chain pays the horizon check.
	h = newHart(t)
	clk = &fakeCLINT{h: h}
	p = asm.New(ramBase)
	tightLoop(p, 0)
	load(t, h, ramBase, p)
	if n, _ := h.Run(clk, 20000); n == 0 {
		t.Fatal("loop warm-up made no progress")
	}
	clk.mtimecmp, clk.armed = h.Cycles+isa.PageSize, true
	chains := h.FastPathStats().Chains
	allocs = testing.AllocsPerRun(50, func() {
		clk.mtimecmp += 1 << 20
		if n, _ := h.Run(clk, 4096); n != 4096 {
			t.Fatalf("armed loop stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("armed chained dispatch allocates %.1f allocs/op, want 0", allocs)
	}
	if h.FastPathStats().Chains == chains {
		t.Fatal("the armed loop never chained")
	}
}
