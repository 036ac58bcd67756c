package hart

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// traceAllocProgram is the straight-line workload shared by the trace-tier
// host tests: long blocks of ALU and memory work separated by one JAL
// boundary.
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
		bindOp(DefaultCosts(), isa.Decode(binary.LittleEndian.Uint32(code[i:])), &op)
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

// Pages of the TLB set-pressure test. Under the default 16-set, 4-way TLB
// a 4 KiB page's set is vpn mod 16, so the code page setCode and the data
// pages setA, setX, setY and setE all compete for set 0; setCode2, the
// page the code falls through into, sits in set 1.
const (
	setCode  = ramBase
	setCode2 = ramBase + isa.PageSize
	setA     = ramBase + 0x1_0000
	setX     = ramBase + 0x2_0000
	setY     = ramBase + 0x3_0000
	setE     = ramBase + 0x4_0000
)

// setPressureProgram fills page setCode with pre-bound ALU, load, store
// and branch ops against setA, setX and setY, ending in a load from setA
// in the page's last slot. The code falls through to setCode2, touches
// setX and setY, and then misses on setE. That miss evicts the older of
// the fetch entry (setCode) and setA: both were last touched by the final
// load, fetch first, so the reference interpreter evicts setCode and the
// jump back refetches it through a walk. Crediting the run's pending fetch
// hits after the load's data hit instead of before would evict setA.
func setPressureProgram() *asm.Program {
	p := asm.New(setCode)
	p.J("start")
	p.Label("back")
	p.ADDI(12, 12, 1)
	p.ECALL()
	p.Label("start")
	p.LIU(20, setA)
	p.LIU(21, setX)
	p.LIU(22, setY)
	p.LIU(23, setE)
	p.LI(5, 7)
	p.LD(8, 21, 0) // walk: setX enters set 0
	p.SD(5, 22, 8) // walk: setY
	p.LD(9, 20, 0) // walk: setA; set 0 is now full
	for k := 0; p.PC() < setCode+isa.PageSize-4; k++ {
		switch k % 8 {
		case 0:
			p.ADD(6, 6, 5)
		case 1:
			p.SD(6, 20, int64(k%64)*8)
		case 2:
			p.LD(7, 21, int64(k%32)*8)
		case 3:
			p.XOR(5, 5, 7)
		case 4:
			p.SD(5, 22, int64(k%16)*8)
		case 5:
			// A taken branch over one op: a side exit that ends the run.
			label := fmt.Sprintf("skip%d", k)
			p.BNE(0, 20, label)
			p.ADDI(13, 13, 1)
			p.Label(label)
		case 6:
			p.LD(10, 20, int64(k%64)*8)
		default:
			p.ADDI(5, 5, 3)
		}
	}
	p.Label("last")
	p.LD(11, 20, 0) // the page's last slot: fetch setCode, then data setA
	// setCode2
	p.LD(14, 21, 8)
	p.SD(11, 22, 16)
	p.LD(15, 23, 0) // miss in set 0: evicts setCode, the older entry
	p.J("back")
	return p
}

// enterSetPressure loads the set-pressure program, maps its pages with
// identity 4 KiB Sv39 leaves and drops h to S mode at its start.
func enterSetPressure(t *testing.T, h *Hart) {
	t.Helper()
	p := setPressureProgram()
	load(t, h, setCode, p)
	if last, _ := p.LabelAddr("last"); last != setCode+isa.PageSize-4 {
		t.Fatalf("final load at %#x, want the last slot of the code page", last)
	}
	enterSv39With(t, h, setCode, func(b *ptw.Builder, root uint64) error {
		for _, pa := range []uint64{setCode, setCode2, setA, setX, setY, setE} {
			if err := b.Map(root, pa, pa, pteRWXAD, 0, false); err != nil {
				return err
			}
		}
		return nil
	})
}

// runSetPressure runs the set-pressure program to its S-mode ecall on a
// compiled-tier hart, or on the reference interpreter when ref is set,
// with the sampling profiler armed when period is nonzero. It returns the
// hart and its folded profile with the tier frame dropped (the tiers
// label their samples differently), as location -> weight.
func runSetPressure(t *testing.T, ref bool, period uint64) (*Hart, map[string]uint64) {
	t.Helper()
	h := newHart(t)
	if ref {
		h.DisableFastPath()
	}
	var sink *telemetry.Sink
	if period != 0 {
		sink = telemetry.New(telemetry.Config{ProfilePeriod: period})
		h.Prof = sink.Scope().Profiler(0)
	}
	enterSetPressure(t, h)
	for steps := uint64(0); steps < 20000; {
		n, ev := h.Run(noTimer{}, 1024)
		steps += n
		if ev.Kind != EvTrap {
			continue
		}
		if ev.Trap.Cause != isa.ExcEcallS {
			t.Fatalf("unexpected trap %s at pc=%#x", isa.CauseName(ev.Trap.Cause), ev.Trap.PC)
		}
		prof := map[string]uint64{}
		var buf bytes.Buffer
		sink.ExportFoldedProfile(&buf)
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			loc, wgt, _ := strings.Cut(line, " ")
			frames := strings.Split(loc, ";")
			frames = append(frames[:4], frames[5:]...) // drop the tier
			w, err := strconv.ParseUint(wgt, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			prof[strings.Join(frames, ";")] += w
		}
		return h, prof
	}
	t.Fatalf("no terminating ecall (pc=%#x)", h.PC)
	return nil, nil
}

// sameRun fails unless two set-pressure runs agree on registers, PC, the
// program's memory, Cycles, Instret and the TLB, PMP and walk statistics.
func sameRun(t *testing.T, tag string, h, ref *Hart) {
	t.Helper()
	if h.X != ref.X || h.PC != ref.PC {
		t.Errorf("%s: registers/pc differ:\n%#x pc=%#x\n%#x pc=%#x", tag, h.X, h.PC, ref.X, ref.PC)
	}
	if h.Cycles != ref.Cycles || h.Instret != ref.Instret {
		t.Errorf("%s: cycles/instret %d/%d, reference %d/%d", tag, h.Cycles, h.Instret, ref.Cycles, ref.Instret)
	}
	if h.TLB.Stats() != ref.TLB.Stats() || h.PMP.Stats() != ref.PMP.Stats() || h.WalkStats != ref.WalkStats {
		t.Errorf("%s: tlb %+v pmp %+v walks %+v, reference tlb %+v pmp %+v walks %+v", tag,
			h.TLB.Stats(), h.PMP.Stats(), h.WalkStats, ref.TLB.Stats(), ref.PMP.Stats(), ref.WalkStats)
	}
	for _, pa := range []uint64{setCode, setCode2, setA, setX, setY, setE} {
		got, _ := h.Mem.Read(pa, isa.PageSize)
		want, _ := ref.Mem.Read(pa, isa.PageSize)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: page %#x differs", tag, pa)
		}
	}
}

// Pre-bound runs credit their fetch-side TLB hits in batches. The batch
// must land before every data-side hit, or the fetch entry's LRU stamp
// ends up newer than the data entry's and a later miss in the same set
// evicts the wrong way. Here fetch and data entries compete for one TLB
// set, and the compiled tier must match the reference interpreter in
// every architectural and accounting number, with the profiler unarmed
// and armed.
func TestTraceFetchBatchingUnderSetPressure(t *testing.T) {
	ref, _ := runSetPressure(t, true, 0)
	// Misses: setCode, setX, setY, setA, setCode2, setE, and setCode again
	// after setE evicted it. Fewer means the eviction the test is built
	// around did not happen.
	if m := ref.TLB.Stats().Misses; m != 7 {
		t.Fatalf("reference took %d TLB misses, want 7", m)
	}

	h, _ := runSetPressure(t, false, 0)
	if st := h.FastPathStats(); st.TCOps < 900 {
		t.Fatalf("only %d instructions retired by pre-bound ops: %+v", st.TCOps, st)
	}
	sameRun(t, "compiled", h, ref)

	// Armed, a period of a few cycles samples at nearly every
	// instruction. Every simulated number stays as unarmed, and both
	// tiers take the same samples.
	const period = 5
	refArmed, refProf := runSetPressure(t, true, period)
	armed, prof := runSetPressure(t, false, period)
	sameRun(t, "reference armed", refArmed, ref)
	sameRun(t, "compiled armed", armed, ref)
	if len(prof) < 100 {
		t.Fatalf("armed profile holds %d locations, want nearly every instruction", len(prof))
	}
	if !reflect.DeepEqual(prof, refProf) {
		t.Errorf("armed compiled profile (%d locations) differs from the reference's (%d)", len(prof), len(refProf))
	}
}
