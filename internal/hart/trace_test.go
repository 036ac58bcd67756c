package hart

import (
	"encoding/binary"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// traceAllocProgram is the straight-line workload shared by the trace-tier
// host tests: long blocks of ALU and memory work separated by one JAL
// boundary, no traps (TrapCount is a map and its growth would — correctly —
// show up as allocations, so keep it out).
func traceAllocProgram() *asm.Program {
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
	return p
}

// The compiled-trace tier exists to strip per-instruction overhead out of
// the hottest loop in the simulator; a single allocation per dispatch would
// hand the win straight back to the garbage collector. Once the page is
// compiled and the micro-TLB slots are warm, Run through the trace
// dispatch must not allocate at all — unarmed and with a live deadline.
func TestTraceDispatchAllocs(t *testing.T) {
	h := newHart(t)
	load(t, h, ramBase, traceAllocProgram())
	clk := &fakeCLINT{h: h}

	// Warm up: decode the page with its op table and fill the
	// fetch/read/write micro-TLB entries.
	if n, _ := h.Run(clk, 20000); n == 0 {
		t.Fatal("warm-up batch made no progress")
	}
	st := h.FastPathStats()
	if st.BlockBuilds == 0 || st.TCOps == 0 {
		t.Fatalf("trace tier not engaged: %+v", st)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if n, _ := h.Run(clk, 4096); n != 4096 {
			t.Fatalf("run stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("trace dispatch allocates %.1f allocs/op, want 0", allocs)
	}

	// The armed-deadline variant pays the horizon check on every block entry
	// and the epoch snapshot on every run of pre-bound ops; both must stay
	// free.
	clk.mtimecmp, clk.armed = h.Cycles+isa.PageSize, true
	allocs = testing.AllocsPerRun(50, func() {
		clk.mtimecmp += 1 << 20
		if n, _ := h.Run(clk, 4096); n != 4096 {
			t.Fatalf("armed run stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("armed trace dispatch allocates %.1f allocs/op, want 0", allocs)
	}

	// The dispatch retired real work through pre-bound ops, not just
	// through execute().
	if st2 := h.FastPathStats(); st2.TCOps <= st.TCOps {
		t.Fatalf("measured batches retired no trace ops: before %+v after %+v", st, st2)
	}
}

// A page that keeps invalidating itself below the blacklist threshold is not
// demoted: every store triggers one full rebuild, op table included, and
// the patched instruction keeps retiring through its pre-bound op. The
// rebuilds stay one per invalidation (no storm), and the page stays off the
// blacklist.
func TestTraceSMCThrashDemotion(t *testing.T) {
	const iters = blacklistThreshold - 8
	h := newHart(t)
	load(t, h, ramBase, smcLoop(t, iters))

	_, ev := h.Run(noTimer{}, 10000)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v (pc=%#x)", ev, h.PC)
	}
	if got := h.Reg(9); got != iters {
		t.Fatalf("x9 = %d, want %d (patched instruction mis-executed)", got, iters)
	}

	st := h.FastPathStats()
	if h.fp.blacklist[ramBase] {
		t.Fatalf("page blacklisted after only %d invalidations: %+v", iters, st)
	}
	if st.BlockInvals < iters {
		t.Fatalf("expected >=%d invalidations, got %+v", iters, st)
	}
	if st.BlockBuilds > st.BlockInvals+1 {
		t.Fatalf("rebuild storm: %d builds for %d invalidations: %+v",
			st.BlockBuilds, st.BlockInvals, st)
	}
	// After each store's rebuild, the patched ADDI and the loop tail
	// (ADDI, BNE) retire through pre-bound ops.
	if st.TCOps < 3*iters {
		t.Fatalf("rebuilt pages retired %d pre-bound ops, want >= %d: %+v",
			st.TCOps, 3*iters, st)
	}
}

// One straight-line block mixes every way the dispatch loop can retire an
// instruction: runs of pre-bound ops, an AMO (an empty slot) in the middle,
// and a page-straddling LD whose data slot cannot resolve (a bailout).
// After each execute() instruction, dispatch must go back to pre-bound ops,
// so on the trace tier every op with a pre-bound slot except the one that
// bailed out retires through one; every tier must reach the same
// architectural state, cycle count and instruction count.
func TestMixedBlockAllTiers(t *testing.T) {
	const boundary = confData + isa.PageSize // the LD straddles this address
	p := asm.New(ramBase)
	p.LIU(20, confData)
	p.LIU(21, boundary)
	p.LI(5, 0x1234_5678_9abc)
	for i := 0; i < 6; i++ {
		p.ADD(6, 6, 5)
		p.XOR(7, 7, 6)
		p.SLLI(5, 5, 3)
	}
	p.SD(6, 21, -8)
	p.SD(7, 21, 0)
	p.AMOADDD(8, 20, 5) // empty slot, mid-block
	for i := 0; i < 6; i++ {
		p.ADD(9, 9, 8)
		p.ADDI(8, 8, 1)
	}
	p.LD(10, 21, -4) // straddles the page boundary: a bailout
	for i := 0; i < 6; i++ {
		p.XOR(11, 11, 10)
		p.ADD(10, 10, 9)
	}
	p.ECALL()
	code := p.MustAssemble()

	var bindable uint64
	for i := 0; i+4 <= len(code); i += 4 {
		var op traceOp
		bindOp(DefaultCosts(), isa.Decode(binary.LittleEndian.Uint32(code[i:])).Op, &op)
		if op.oi != nil {
			bindable++
		}
	}

	var ref *Hart
	for _, tier := range confTiers {
		h := runConformance(t, tier, code)
		if tier.name == "trace" {
			st := h.FastPathStats()
			if st.TCBailouts != 1 {
				t.Errorf("trace: %d bailouts, want 1 (the straddling LD)", st.TCBailouts)
			}
			if st.TCOps != bindable-1 {
				t.Errorf("trace: %d instructions retired by pre-bound ops, want %d", st.TCOps, bindable-1)
			}
		}
		if ref == nil {
			ref = h
			if want := ref.Reg(6)>>32 | ref.Reg(7)<<32; ref.Reg(10) != want+6*ref.Reg(9) {
				t.Fatalf("straddling LD chain: x10 = %#x, want %#x", ref.Reg(10), want+6*ref.Reg(9))
			}
			continue
		}
		if h.X != ref.X || h.PC != ref.PC {
			t.Errorf("%s: registers/pc differ from %s:\n%#x pc=%#x\n%#x pc=%#x",
				tier.name, confTiers[0].name, h.X, h.PC, ref.X, ref.PC)
		}
		if h.Cycles != ref.Cycles || h.Instret != ref.Instret {
			t.Errorf("%s: cycles/instret %d/%d, %s has %d/%d",
				tier.name, h.Cycles, h.Instret, confTiers[0].name, ref.Cycles, ref.Instret)
		}
		for addr := uint64(confData); addr < boundary+isa.PageSize; addr += 8 {
			got, _ := h.Mem.ReadUint(addr, 8)
			want, _ := ref.Mem.ReadUint(addr, 8)
			if got != want {
				t.Errorf("%s: mem[%#x] = %#x, %s has %#x", tier.name, addr, got, confTiers[0].name, want)
			}
		}
	}
}

// Per-tier dispatch-length distributions: with the trace tier on, whole
// superblock runs retire through pre-bound ops and the trace histogram
// must account for exactly the ops the stats report; with the tier off, the
// same program retires through execute() and only the superblock
// histogram fills. The histograms are host-side observability — arming them
// must leave every simulated number untouched, which the quad-engine
// lockstep suites already pin — so this test checks the distribution
// bookkeeping itself.
func TestDispatchLengthHistograms(t *testing.T) {
	run := func(traces bool) (sb, tc *telemetry.Histogram, st FastPathStats) {
		h := newHart(t)
		h.SetTraces(traces)
		sb, tc = telemetry.NewHistogram(), telemetry.NewHistogram()
		h.SetDispatchHists(sb, tc)
		load(t, h, ramBase, traceAllocProgram())
		if n, _ := h.Run(noTimer{}, 20000); n == 0 {
			t.Fatal("run made no progress")
		}
		h.FlushDispatchHists()
		return sb, tc, h.FastPathStats()
	}

	sb, tc, st := run(true)
	if tc.Count() == 0 {
		t.Fatalf("trace histogram empty with the tier on: %+v", st)
	}
	if tc.Sum() != st.TCOps {
		t.Fatalf("trace histogram sums %d ops, stats report %d", tc.Sum(), st.TCOps)
	}
	if tc.Max() < 40 {
		t.Fatalf("straight-line runs should compile into long traces, max dispatch = %d", tc.Max())
	}
	if tc.Mean() <= 1 {
		t.Fatalf("trace dispatches average %.1f ops — tier is not amortizing", tc.Mean())
	}
	_ = sb // pre-bound ops may retire whole blocks, leaving execute() idle

	sb, tc, st = run(false)
	if tc.Count() != 0 {
		t.Fatalf("trace histogram observed %d dispatches with the tier off", tc.Count())
	}
	if sb.Count() == 0 || sb.Sum() == 0 {
		t.Fatalf("superblock histogram empty with execute() retiring every instruction: %+v", st)
	}
	if sb.Mean() <= 1 {
		t.Fatalf("superblock dispatches average %.1f ops", sb.Mean())
	}
}
