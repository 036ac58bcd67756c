package hart

import (
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

	// Warm up: decode the page, build superblocks, compile the trace table,
	// and fill the fetch/read/write micro-TLB entries.
	if n, _ := h.Run(clk, 20000); n == 0 {
		t.Fatal("warm-up batch made no progress")
	}
	st := h.FastPathStats()
	if st.TCCompiles == 0 || st.TCEntries == 0 || st.TCOps == 0 {
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
	// and the generation snapshot on every trace entry; both must stay free.
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

	// The dispatch retired real work through pre-bound handlers, not just
	// via the generic fallback loop.
	if st2 := h.FastPathStats(); st2.TCOps <= st.TCOps {
		t.Fatalf("measured batches retired no trace ops: before %+v after %+v", st, st2)
	}
}

// A page that keeps invalidating its own trace table must be demoted, not
// recompiled per store: compiling a 1024-slot table on every iteration of a
// self-modifying loop would be a recompile storm that costs more than the
// tier saves. Past tcDemoteThreshold invalidations the page stays on the
// generic superblock loop (TCDemotions), while decode and block dispatch
// continue until the separate blacklist threshold retires the page
// entirely — this loop stays below that, so execution remains on the fast
// path throughout.
func TestTraceSMCThrashDemotion(t *testing.T) {
	h := newHart(t)
	const iters = tcDemoteThreshold + 4 // past demotion, below the blacklist
	if iters >= blacklistThreshold {
		t.Fatalf("test premise broken: %d iterations would blacklist the page", iters)
	}
	w := instrWord(t, func(q *asm.Program) { q.ADDI(9, 9, 1) })
	p := asm.New(ramBase)
	p.LI(5, iters)
	p.LA(6, "patch")
	p.LI(7, int64(w))
	p.Label("loop")
	p.SW(7, 6, 0) // rewrite the patch slot: invalidates this very page
	p.Label("patch")
	p.NOP() // overwritten with ADDI x9,x9,1 before first execution
	p.ADDI(5, 5, -1)
	p.BNE(5, 0, "loop")
	p.ECALL()
	load(t, h, ramBase, p)

	_, ev := h.Run(noTimer{}, 10000)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v (pc=%#x)", ev, h.PC)
	}
	if got := h.Reg(9); got != iters {
		t.Fatalf("x9 = %d, want %d (patched instruction mis-executed)", got, iters)
	}

	st := h.FastPathStats()
	if st.TCInvals == 0 {
		t.Fatalf("no compiled trace was ever invalidated: %+v", st)
	}
	if st.TCDemotions == 0 {
		t.Fatalf("thrashed page was never demoted: %+v", st)
	}
	// The storm guard itself: compile attempts stop once the invalidation
	// count crosses the threshold, no matter how many more stores land.
	if st.TCCompiles > tcDemoteThreshold {
		t.Fatalf("recompile storm: %d compiles of a page thrashed %d times (threshold %d): %+v",
			st.TCCompiles, iters, tcDemoteThreshold, st)
	}
	if st.TCDemotions < iters-tcDemoteThreshold {
		t.Fatalf("expected >=%d demoted rebuilds, got %+v", iters-tcDemoteThreshold, st)
	}
}

// Per-tier dispatch-length distributions: with the trace tier on, whole
// superblock runs retire through pre-bound handlers and the trace histogram
// must account for exactly the ops the stats report; with the tier off, the
// same program drains through the generic loop and only the superblock
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
	_ = sb // the trace tier may drain whole blocks, leaving the generic loop idle

	sb, tc, st = run(false)
	if tc.Count() != 0 {
		t.Fatalf("trace histogram observed %d dispatches with the tier off", tc.Count())
	}
	if sb.Count() == 0 || sb.Sum() == 0 {
		t.Fatalf("superblock histogram empty with the generic loop active: %+v", st)
	}
	if sb.Mean() <= 1 {
		t.Fatalf("superblock dispatches average %.1f ops", sb.Mean())
	}
}
