package hart

import (
	"fmt"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/ptw"
)

// stepN retires n instructions through Run, one per call, failing on any
// event.
func stepN(t *testing.T, h *Hart, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ev := h.Run(noTimer{}, 1); ev.Kind != EvNone {
			t.Fatalf("step %d: unexpected event %v at pc=%#x", i, ev.Kind, h.PC)
		}
	}
}

// runFast runs h through Run until an event, with a step limit.
func runFast(t *testing.T, h *Hart, maxSteps uint64) Event {
	t.Helper()
	_, ev := h.Run(noTimer{}, maxSteps)
	if ev.Kind == EvNone {
		t.Fatalf("no event after %d steps at pc=%#x", maxSteps, h.PC)
	}
	return ev
}

// A store into the executed page must invalidate the decoded block and the
// re-decoded instruction must take effect.
func TestFastPathSMCInvalidation(t *testing.T) {
	p := asm.New(ramBase)
	// Overwrite the "addi x6, x0, 1" at label patch with "addi x6, x0, 2"
	// before reaching it.
	w := instrWord(t, func(q *asm.Program) { q.ADDI(6, 0, 2) })
	p.NOP().NOP() // warm the decoded page
	p.LA(5, "patch")
	p.LI(7, int64(w))
	p.SW(7, 5, 0)
	p.Label("patch")
	p.ADDI(6, 0, 1)
	p.ECALL()

	h := newHart(t)
	load(t, h, ramBase, p)
	ev := runFast(t, h, 100)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v", ev)
	}
	if got := h.Reg(6); got != 2 {
		t.Fatalf("x6 = %d, want 2 (patched instruction must execute)", got)
	}
	st := h.FastPathStats()
	if st.BlockInvals == 0 {
		t.Fatalf("no decoded-block invalidation recorded: %+v", st)
	}
	if st.BlockBuilds < 2 {
		t.Fatalf("page was not re-decoded after the store: %+v", st)
	}
}

// Each epoch source must force a refill on the next access: micro-TLB
// entries survive only while every generation they captured is current.
func TestFastPathEpochInvalidation(t *testing.T) {
	newRunning := func(t *testing.T) *Hart {
		p := asm.New(ramBase)
		for i := 0; i < 64; i++ {
			p.ADDI(5, 5, 1)
		}
		p.ECALL()
		h := newHart(t)
		load(t, h, ramBase, p)
		stepN(t, h, 4) // warm: entry filled, hits flowing
		return h
	}

	cases := []struct {
		name string
		bump func(h *Hart)
	}{
		{"satp write", func(h *Hart) {
			h.SetCSR(isa.CSRSatp, 0)
		}},
		{"mstatus SUM/MXR write", func(h *Hart) {
			h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusSUM)
		}},
		{"PMP address write", func(h *Hart) {
			h.PMP.SetAddr(0, 0x2000_0000>>2)
		}},
		{"PMP config write", func(h *Hart) {
			h.PMP.SetCfg(0, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newRunning(t)
			before := h.FastPathStats().Fills
			stepN(t, h, 2)
			if f := h.FastPathStats().Fills; f != before {
				t.Fatalf("steady state refilled without cause: %d -> %d", before, f)
			}
			c.bump(h)
			stepN(t, h, 2)
			if f := h.FastPathStats().Fills; f == before {
				t.Fatalf("%s did not invalidate the fetch entry", c.name)
			}
		})
	}
}

// smcLoop assembles a loop that rewrites its own next instruction on every
// one of iters iterations: the store invalidates the page it executes from,
// and the patched instruction (x9 += 1) must then run, so x9 == iters at the
// final ecall.
func smcLoop(t *testing.T, iters int) *asm.Program {
	t.Helper()
	w := instrWord(t, func(q *asm.Program) { q.ADDI(9, 9, 1) })
	p := asm.New(ramBase)
	p.LI(5, int64(iters)) // loop count
	p.LA(6, "patch")
	p.LI(7, int64(w))
	p.Label("loop")
	p.SW(7, 6, 0) // rewrite the patch slot: invalidates this very page
	p.Label("patch")
	p.NOP() // overwritten with ADDI x9,x9,1 before first execution
	p.ADDI(5, 5, -1)
	p.BNE(5, 0, "loop")
	p.ECALL()
	return p
}

// Pages invalidated more than blacklistThreshold times stop being decoded:
// execution continues on the slow fetch path, still correct, and the
// rebuilds (every one a full decode) stop at the threshold however many
// more stores land.
func TestFastPathBlacklist(t *testing.T) {
	const iters = blacklistThreshold + 4
	h := newHart(t)
	load(t, h, ramBase, smcLoop(t, iters))
	ev := runFast(t, h, 10000)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v", ev)
	}
	if got := h.Reg(9); got != iters {
		t.Fatalf("x9 = %d, want %d (patched instruction mis-executed)", got, iters)
	}
	st := h.FastPathStats()
	if !h.fp.blacklist[ramBase] {
		t.Fatalf("page %#x not blacklisted after %d invalidations (stats %+v)",
			uint64(ramBase), iters, st)
	}
	if st.BlockInvals < blacklistThreshold {
		t.Fatalf("expected >=%d invalidations, got %+v", blacklistThreshold, st)
	}
	// The storm guard: one build, then one rebuild per invalidation until
	// the blacklist retires the page.
	if st.BlockBuilds > blacklistThreshold+1 {
		t.Fatalf("rebuild storm: %d builds of a page rewritten %d times (threshold %d): %+v",
			st.BlockBuilds, iters, blacklistThreshold, st)
	}
}

// Disabling the engine must unregister every code page and detach the
// watcher so the memory no longer pays notification costs.
func TestFastPathDisableCleansUp(t *testing.T) {
	p := asm.New(ramBase)
	for i := 0; i < 8; i++ {
		p.NOP()
	}
	p.ECALL()
	h := newHart(t)
	load(t, h, ramBase, p)
	stepN(t, h, 4)
	if !h.Mem.IsCodePage(ramBase) {
		t.Fatal("executed page not registered while enabled")
	}
	h.DisableFastPath()
	if h.fp != nil {
		t.Fatal("engine still attached")
	}
	if h.Mem.IsCodePage(ramBase) {
		t.Fatal("code page still registered after disable")
	}
	// The hart keeps running on the slow path.
	ev := run(t, h, 100)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("slow path did not complete: %+v", ev)
	}
}

// Loads/stores through the micro-TLB must account cycles and TLB/PMP stats
// exactly like the slow path (the lockstep fuzzer covers this broadly; this
// is the minimal deterministic version for quick failure localisation).
func TestFastPathAccessAccounting(t *testing.T) {
	prog := func() *asm.Program {
		p := asm.New(ramBase)
		p.LIU(5, ramBase+0x2000)
		for i := 0; i < 16; i++ {
			p.SD(6, 5, int64(i*8))
			p.LD(7, 5, int64(i*8))
		}
		p.ECALL()
		return p
	}
	fast, slow := newLockstepPair(t)
	load(t, fast, ramBase, prog())
	load(t, slow, ramBase, prog())
	lockstep(t, "accounting", 0, fast, slow, isa.ExcEcallM)
	st := fast.FastPathStats()
	if st.ReadHits == 0 || st.WriteHits == 0 {
		t.Fatalf("data micro-TLB never hit: %+v", st)
	}
}

// A fetch the fast path cannot serve is counted once. The batch misses
// the fetch micro-TLB and its fill fails, because the simulated TLB holds
// no entry for the page yet; the Step that follows walks the page table
// without consulting the fast path a second time.
func TestFastPathFetchMissCountedOnce(t *testing.T) {
	p := asm.New(ramBase)
	p.NOP()
	p.ECALL()
	h := newHart(t)
	load(t, h, ramBase, p)
	enterSv39(t, h)
	if h.Mode != isa.ModeS {
		t.Fatalf("mode = %v, want S", h.Mode)
	}
	stepN(t, h, 1)
	st := h.FastPathStats()
	if st.FetchMisses != 1 || st.Fills != 1 || st.FillFails != 1 {
		t.Fatalf("fetch misses/fills/fill failures = %d/%d/%d, want 1/1/1",
			st.FetchMisses, st.Fills, st.FillFails)
	}
	if h.WalkStats.Walks != 1 {
		t.Fatalf("walks = %d, want 1", h.WalkStats.Walks)
	}
}

// The event-horizon bound must count the TLBHit every translated fetch
// pays, not only a data access's. With a non-zero TLBHit, an S-mode Sv39
// run of ADDIs must take a timer interrupt at the same instruction,
// cycle and instret count as the reference interpreter, for deadlines
// that fall early, mid-page and late.
func TestHorizonCountsFetchTLBHit(t *testing.T) {
	p := asm.New(ramBase)
	for i := 0; i < 300; i++ {
		p.ADDI(5, 5, 1)
	}
	p.ECALL()
	for tlbHit, deadlines := range map[uint64][]uint64{0: {37, 150, 280}, 7: {37, 500, 1000, 2345}} {
		for _, deadline := range deadlines {
			fast, slow, fc, sc := newBatchPair(t)
			for i, h := range []*Hart{fast, slow} {
				c := *h.Cost
				c.TLBHit = tlbHit
				h.Cost = &c
				load(t, h, ramBase, p)
				enterSv39(t, h)
				h.SetCSR(isa.CSRMtvec, ramBase+0x2000)
				h.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
				clint := []*fakeCLINT{fc, sc}[i]
				clint.mtimecmp, clint.armed = h.Cycles+deadline, true
			}
			tag := fmt.Sprintf("TLBHit %d, deadline +%d", tlbHit, deadline)
			if ev := sameFirstEvent(t, tag, fast, slow, fc, sc); ev.Kind != EvTrap || ev.Trap.Cause != timerInterrupt {
				t.Errorf("%s: event %+v, want a machine timer interrupt", tag, ev)
			}
		}
	}
}

// A data access the fast path cannot serve is tried once. The store
// misses the write micro-TLB and its fill fails, because the simulated
// TLB holds no entry for the data page yet; the trace loop declines it,
// and execute's access, under the same translation context, goes to the
// walk without a second fill or a second miss. The walk's TLB insert
// moves the context, so the next store to the page misses, fills and
// hits.
func TestFastPathDataMissFilledOnce(t *testing.T) {
	const data = ramBase + 0x10000
	p := asm.New(ramBase)
	p.LI(5, data)
	p.SD(0, 5, 0)
	p.SD(0, 5, 8)
	p.ECALL()
	h := newHart(t)
	load(t, h, ramBase, p)
	enterSv39With(t, h, ramBase, func(b *ptw.Builder, root uint64) error {
		if err := b.Map(root, ramBase, ramBase, pteRWXAD, 0, false); err != nil {
			return err
		}
		return b.Map(root, data, data, pteRWXAD, 0, false)
	})
	before := h.FastPathStats()
	if ev := runFast(t, h, 100); ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallS {
		t.Fatalf("event %+v, want the ecall", ev)
	}
	st := h.FastPathStats()
	fetchFills := st.FetchMisses - before.FetchMisses
	if got := st.WriteMisses - before.WriteMisses; got != 2 {
		t.Errorf("write misses = %d, want 2", got)
	}
	if got := st.WriteHits - before.WriteHits; got != 1 {
		t.Errorf("write hits = %d, want 1", got)
	}
	if got := st.Fills - before.Fills - fetchFills; got != 2 {
		t.Errorf("data fills = %d, want 2 (one declined, one after the walk)", got)
	}
	if h.WalkStats.Walks != 2 {
		t.Errorf("walks = %d, want 2 (code page, data page)", h.WalkStats.Walks)
	}
}
