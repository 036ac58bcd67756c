package hart

import (
	"reflect"
	"testing"
	"testing/quick"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/pmp"
	"zion/internal/ptw"
)

const (
	ramBase = 0x8000_0000
	ramSize = 64 << 20
)

func newHart(t *testing.T) *Hart {
	t.Helper()
	ram := mem.NewPhysMemory(ramBase, ramSize)
	return New(0, ram, nil)
}

// load writes code at addr and points PC there.
func load(t *testing.T, h *Hart, addr uint64, p *asm.Program) {
	t.Helper()
	code, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mem.Write(addr, code); err != nil {
		t.Fatal(err)
	}
	h.PC = addr
}

// openPMP grants S/U access to all of RAM via a NAPOT entry.
func openPMP(t *testing.T, h *Hart) {
	t.Helper()
	raw, err := pmp.EncodeNAPOT(ramBase, ramSize)
	if err != nil {
		t.Fatal(err)
	}
	h.PMP.SetAddr(15, raw)
	h.PMP.SetCfg(15, pmp.PermR|pmp.PermW|pmp.PermX|3<<3)
}

// noTimer is a Clock with no timer armed.
type noTimer struct{}

func (noTimer) NextDeadline(int) (uint64, bool) { return 0, false }

// run steps until an event other than EvNone, with a step limit.
func run(t *testing.T, h *Hart, maxSteps int) Event {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		ev := h.Step()
		if ev.Kind != EvNone {
			return ev
		}
	}
	t.Fatalf("no event after %d steps at pc=%#x", maxSteps, h.PC)
	return Event{}
}

func TestMModeALUProgram(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.LI(asm.A0, 100)
	p.LI(asm.A1, 23)
	p.ADD(asm.A2, asm.A0, asm.A1) // 123
	p.MUL(asm.A3, asm.A2, asm.A1) // 2829
	p.DIV(asm.A4, asm.A3, asm.A0) // 28
	p.REM(asm.A5, asm.A3, asm.A0) // 29
	p.SUB(asm.A6, asm.A0, asm.A1) // 77
	p.ECALL()
	load(t, h, ramBase, p)
	ev := run(t, h, 100)
	if ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
	want := map[asm.Reg]uint64{asm.A2: 123, asm.A3: 2829, asm.A4: 28, asm.A5: 29, asm.A6: 77}
	for r, v := range want {
		if h.Reg(r) != v {
			t.Errorf("x%d = %d, want %d", r, h.Reg(r), v)
		}
	}
	if h.Instret == 0 || h.Cycles == 0 {
		t.Error("counters did not advance")
	}
}

func TestMemoryLoadsStores(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	buf := int64(0x10000)
	p.LI(asm.T0, ramBase+buf)
	p.LI(asm.T1, -2)
	p.SD(asm.T1, asm.T0, 0)
	p.LD(asm.A0, asm.T0, 0)  // 0xFFFF...FFFE
	p.LW(asm.A1, asm.T0, 0)  // sign-extended -2
	p.LWU(asm.A2, asm.T0, 0) // zero-extended
	p.LB(asm.A3, asm.T0, 0)
	p.LBU(asm.A4, asm.T0, 0)
	p.LH(asm.A5, asm.T0, 0)
	p.ECALL()
	load(t, h, ramBase, p)
	run(t, h, 100)
	if h.Reg(asm.A0) != ^uint64(1) {
		t.Errorf("ld = %#x", h.Reg(asm.A0))
	}
	if h.Reg(asm.A1) != ^uint64(1) {
		t.Errorf("lw = %#x", h.Reg(asm.A1))
	}
	if h.Reg(asm.A2) != 0xFFFFFFFE {
		t.Errorf("lwu = %#x", h.Reg(asm.A2))
	}
	if h.Reg(asm.A3) != ^uint64(1) || h.Reg(asm.A4) != 0xFE {
		t.Errorf("lb/lbu = %#x/%#x", h.Reg(asm.A3), h.Reg(asm.A4))
	}
	if h.Reg(asm.A5) != ^uint64(1) {
		t.Errorf("lh = %#x", h.Reg(asm.A5))
	}
}

func TestBranchLoop(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.LI(asm.A0, 0)
	p.LI(asm.A1, 10)
	p.Label("loop")
	p.ADDI(asm.A0, asm.A0, 1)
	p.BLT(asm.A0, asm.A1, "loop")
	p.ECALL()
	load(t, h, ramBase, p)
	run(t, h, 100)
	if h.Reg(asm.A0) != 10 {
		t.Errorf("loop counter = %d, want 10", h.Reg(asm.A0))
	}
}

func TestIllegalInstruction(t *testing.T) {
	h := newHart(t)
	if err := h.Mem.WriteUint(ramBase, 0xFFFFFFFF, 4); err != nil {
		t.Fatal(err)
	}
	h.PC = ramBase
	ev := h.Step()
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcIllegalInst {
		t.Fatalf("event = %+v", ev)
	}
	if h.CSR(isa.CSRMepc) != ramBase {
		t.Errorf("mepc = %#x", h.CSR(isa.CSRMepc))
	}
	if h.Mode != isa.ModeM {
		t.Errorf("mode = %v", h.Mode)
	}
}

func TestEcallFromUTrapsAndDelegates(t *testing.T) {
	// Without medeleg: ecall-U goes to M. With medeleg bit 8: goes to HS.
	for _, deleg := range []bool{false, true} {
		h := newHart(t)
		openPMP(t, h)
		p := asm.New(ramBase)
		p.ECALL()
		load(t, h, ramBase, p)
		if deleg {
			h.SetCSR(isa.CSRMedeleg, 1<<isa.ExcEcallU)
		}
		h.Mode = isa.ModeU
		ev := run(t, h, 10)
		if ev.Trap.Cause != isa.ExcEcallU {
			t.Fatalf("cause = %v", isa.CauseName(ev.Trap.Cause))
		}
		wantTarget := isa.ModeM
		if deleg {
			wantTarget = isa.ModeS
		}
		if ev.Trap.Target != wantTarget || h.Mode != wantTarget {
			t.Errorf("deleg=%v: target=%v mode=%v", deleg, ev.Trap.Target, h.Mode)
		}
		if deleg {
			if h.CSR(isa.CSRSepc) != ramBase || h.CSR(isa.CSRScause) != isa.ExcEcallU {
				t.Error("supervisor trap CSRs not written")
			}
		}
	}
}

func TestMRetRestoresModeAndPC(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	// Set up a U-mode target.
	h.SetCSR(isa.CSRMepc, ramBase+0x100)
	st := h.CSR(isa.CSRMstatus)
	st = st&^isa.MstatusMPP | 0<<isa.MstatusMPPShift | isa.MstatusMPIE
	h.SetCSR(isa.CSRMstatus, st)
	h.MRet()
	if h.Mode != isa.ModeU || h.PC != ramBase+0x100 {
		t.Errorf("after mret: mode=%v pc=%#x", h.Mode, h.PC)
	}
	if h.CSR(isa.CSRMstatus)&isa.MstatusMIE == 0 {
		t.Error("MIE not restored from MPIE")
	}
}

func TestMRetIntoVirtualMode(t *testing.T) {
	h := newHart(t)
	st := h.CSR(isa.CSRMstatus)
	st = st&^isa.MstatusMPP | 1<<isa.MstatusMPPShift | isa.MstatusMPV
	h.SetCSR(isa.CSRMstatus, st)
	h.SetCSR(isa.CSRMepc, ramBase)
	h.MRet()
	if h.Mode != isa.ModeVS {
		t.Errorf("mode = %v, want VS", h.Mode)
	}
	if h.CSR(isa.CSRMstatus)&isa.MstatusMPV != 0 {
		t.Error("MPV must clear on mret")
	}
}

func TestSRetFromHSIntoGuest(t *testing.T) {
	h := newHart(t)
	h.Mode = isa.ModeS
	h.SetCSR(isa.CSRHstatus, isa.HstatusSPV)
	st := h.CSR(isa.CSRMstatus) | isa.MstatusSPP
	h.SetCSR(isa.CSRMstatus, st)
	h.SetCSR(isa.CSRSepc, ramBase+0x40)
	h.SRet()
	if h.Mode != isa.ModeVS || h.PC != ramBase+0x40 {
		t.Errorf("after sret: mode=%v pc=%#x", h.Mode, h.PC)
	}
}

func TestSRetInsideGuest(t *testing.T) {
	h := newHart(t)
	h.Mode = isa.ModeVS
	h.SetCSR(isa.CSRVsstatus, isa.MstatusSPIE) // SPP=0 -> VU
	h.SetCSR(isa.CSRVsepc, ramBase+0x80)
	h.SRet()
	if h.Mode != isa.ModeVU || h.PC != ramBase+0x80 {
		t.Errorf("after guest sret: mode=%v pc=%#x", h.Mode, h.PC)
	}
	if h.CSR(isa.CSRVsstatus)&isa.MstatusSIE == 0 {
		t.Error("vsstatus.SIE not restored from SPIE")
	}
}

func TestTimerInterruptToM(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.NOP().NOP().NOP()
	load(t, h, ramBase, p)
	h.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
	h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusMIE)
	h.Step() // first nop
	h.SetPending(isa.IntMTimer)
	ev := h.Step()
	if ev.Kind != EvTrap {
		t.Fatalf("expected trap, got %+v", ev)
	}
	if ev.Trap.Cause != isa.CauseInterruptBit|isa.IntMTimer {
		t.Errorf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
	// mepc points at the not-yet-executed instruction.
	if h.CSR(isa.CSRMepc) != ramBase+4 {
		t.Errorf("mepc = %#x, want %#x", h.CSR(isa.CSRMepc), ramBase+4)
	}
	// MIE cleared on entry: no double trap.
	h.ClearPending(isa.IntMTimer)
	if _, ok := h.PendingInterrupt(); ok {
		t.Error("interrupt still pending after entry")
	}
}

func TestInterruptDelegationToS(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	p := asm.New(ramBase)
	p.NOP().NOP()
	load(t, h, ramBase, p)
	h.SetCSR(isa.CSRMideleg, 1<<isa.IntSTimer)
	h.SetCSR(isa.CSRMie, 1<<isa.IntSTimer)
	h.Mode = isa.ModeU // S-level interrupts always fire from U
	h.SetPending(isa.IntSTimer)
	ev := h.Step()
	if ev.Kind != EvTrap || ev.Trap.Target != isa.ModeS {
		t.Fatalf("event = %+v", ev)
	}
	if h.Mode != isa.ModeS {
		t.Errorf("mode = %v", h.Mode)
	}
}

func TestVSTimerInterruptDelegatedToGuest(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	p := asm.New(ramBase)
	p.NOP().NOP()
	load(t, h, ramBase, p)
	// Identity G-stage not needed: VS interrupt check precedes fetch.
	h.SetCSR(isa.CSRMideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRMie, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHie, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRVsstatus, isa.MstatusSIE)
	h.SetCSR(isa.CSRVstvec, ramBase+0x200)
	h.Mode = isa.ModeVS
	h.SetPending(isa.IntVSTimer)
	ev := h.Step()
	if ev.Kind != EvTrap || ev.Trap.Target != isa.ModeVS {
		t.Fatalf("event = %+v", ev)
	}
	// Guest sees a *supervisor* timer interrupt.
	if h.CSR(isa.CSRVscause) != isa.CauseInterruptBit|isa.IntSTimer {
		t.Errorf("vscause = %s", isa.CauseName(h.CSR(isa.CSRVscause)))
	}
	if h.PC != ramBase+0x200 {
		t.Errorf("pc = %#x, want vstvec", h.PC)
	}
}

func TestVSInterruptMaskedInHS(t *testing.T) {
	h := newHart(t)
	h.SetCSR(isa.CSRMideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHideleg, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRMie, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRHie, 1<<isa.IntVSTimer)
	h.SetCSR(isa.CSRVsstatus, isa.MstatusSIE)
	h.SetPending(isa.IntVSTimer)
	h.Mode = isa.ModeS
	if _, ok := h.PendingInterrupt(); ok {
		t.Error("VS interrupt must not fire while in HS-mode")
	}
	h.Mode = isa.ModeVS
	if _, ok := h.PendingInterrupt(); !ok {
		t.Error("VS interrupt should fire in VS-mode with SIE")
	}
}

// buildGStage identity-maps npages of guest GPA space starting at gpaBase.
func buildGStage(t *testing.T, h *Hart, gpaBase, hpaBase uint64, npages int) uint64 {
	t.Helper()
	next := uint64(ramBase + 48<<20)
	alloc := func() (uint64, error) {
		p := next
		next += isa.PageSize
		return p, nil
	}
	b := &ptw.Builder{Mem: h.Mem, Alloc: alloc}
	root, err := b.NewRoot(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < npages; i++ {
		off := uint64(i) * isa.PageSize
		err := b.Map(root, gpaBase+off, hpaBase+off,
			isa.PTERead|isa.PTEWrite|isa.PTEExec|isa.PTEUser, 0, true)
		if err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestVSModeExecutionAndGuestPageFault(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	root := buildGStage(t, h, 0x8000_0000, ramBase, 16)
	h.SetCSR(isa.CSRHgatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|7<<isa.HgatpVMIDShift|root>>isa.PageShift)
	// Firmware (OpenSBI-style) delegates guest-page faults to HS.
	h.SetCSR(isa.CSRMedeleg, 1<<isa.ExcInstGuestPageFault|
		1<<isa.ExcLoadGuestPageFault|1<<isa.ExcStoreGuestPageFault)

	p := asm.New(0x8000_0000) // guest-physical addresses
	p.LI(asm.A0, 5)
	p.LI(asm.A1, 7)
	p.ADD(asm.A2, asm.A0, asm.A1)
	// Store to an unmapped GPA: guest-page fault routed to HS.
	p.LI(asm.T0, 0x9000_0000)
	p.SD(asm.A2, asm.T0, 8)
	load(t, h, ramBase, p) // code at host ramBase == GPA 0x8000_0000
	h.PC = 0x8000_0000
	h.Mode = isa.ModeVS

	ev := run(t, h, 100)
	if ev.Trap.Cause != isa.ExcStoreGuestPageFault {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
	if ev.Trap.Target != isa.ModeS {
		t.Errorf("guest-page faults must reach HS, got %v", ev.Trap.Target)
	}
	if h.Reg(asm.A2) != 12 {
		t.Errorf("guest computation lost: a2 = %d", h.Reg(asm.A2))
	}
	// htval carries GPA>>2.
	if got := h.CSR(isa.CSRHtval); got != (0x9000_0000+8)>>2 {
		t.Errorf("htval = %#x, want %#x", got, uint64(0x9000_0000+8)>>2)
	}
	// htinst carries a transformed store with rs1 cleared.
	tin, ok := isa.DecodeTransformed(h.CSR(isa.CSRHtinst))
	if !ok || !tin.IsStore() || tin.Rs1 != 0 {
		t.Errorf("htinst = %#x (%+v)", h.CSR(isa.CSRHtinst), tin)
	}
}

func TestVSCSRRemapping(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	root := buildGStage(t, h, 0x8000_0000, ramBase, 16)
	h.SetCSR(isa.CSRHgatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|root>>isa.PageShift)

	p := asm.New(0x8000_0000)
	p.LI(asm.A0, 0x1234)
	p.CSRRW(asm.Zero, isa.CSRSscratch, asm.A0) // remaps to vsscratch
	p.CSRR(asm.A1, isa.CSRSscratch)
	p.ECALL()
	load(t, h, ramBase, p)
	h.PC = 0x8000_0000
	h.Mode = isa.ModeVS
	ev := run(t, h, 50)
	if ev.Trap.Cause != isa.ExcEcallVS {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
	if h.Reg(asm.A1) != 0x1234 {
		t.Errorf("csr read back %#x", h.Reg(asm.A1))
	}
	if h.CSR(isa.CSRVsscratch) != 0x1234 {
		t.Error("write did not land in vsscratch")
	}
	if h.CSR(isa.CSRSscratch) == 0x1234 {
		t.Error("write leaked into the HS sscratch")
	}
}

func TestVSTouchingHypervisorCSRRaisesVirtualInst(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	root := buildGStage(t, h, 0x8000_0000, ramBase, 16)
	h.SetCSR(isa.CSRHgatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|root>>isa.PageShift)
	p := asm.New(0x8000_0000)
	p.CSRR(asm.A0, isa.CSRHstatus)
	load(t, h, ramBase, p)
	h.PC = 0x8000_0000
	h.Mode = isa.ModeVS
	ev := run(t, h, 10)
	if ev.Trap.Cause != isa.ExcVirtualInst {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
}

func TestUModeCannotTouchSupervisorCSR(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	p := asm.New(ramBase)
	p.CSRR(asm.A0, isa.CSRSepc)
	load(t, h, ramBase, p)
	h.Mode = isa.ModeU
	ev := run(t, h, 10)
	if ev.Trap.Cause != isa.ExcIllegalInst {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
}

func TestPMPBlocksSUAccess(t *testing.T) {
	h := newHart(t)
	// Open only the first 1 MiB to S/U; code sits inside, the probe outside.
	raw, _ := pmp.EncodeNAPOT(ramBase, 1<<20)
	h.PMP.SetAddr(0, raw)
	h.PMP.SetCfg(0, pmp.PermR|pmp.PermW|pmp.PermX|3<<3)
	p := asm.New(ramBase)
	p.LI(asm.T0, ramBase+2<<20)
	p.LD(asm.A0, asm.T0, 0)
	load(t, h, ramBase, p)
	h.Mode = isa.ModeS
	ev := run(t, h, 20)
	if ev.Trap.Cause != isa.ExcLoadAccessFault {
		t.Fatalf("cause = %s", isa.CauseName(ev.Trap.Cause))
	}
}

func TestLRSCRoundTrip(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	addr := int64(0x20000)
	p.LI(asm.T0, ramBase+addr)
	p.LI(asm.T1, 41)
	p.SW(asm.T1, asm.T0, 0)
	p.LRW(asm.A0, asm.T0)         // a0 = 41, reservation set
	p.ADDI(asm.A1, asm.A0, 1)     // 42
	p.SCW(asm.A2, asm.T0, asm.A1) // succeeds: a2 = 0
	p.SCW(asm.A3, asm.T0, asm.A1) // reservation gone: a3 = 1
	p.LW(asm.A4, asm.T0, 0)
	p.ECALL()
	load(t, h, ramBase, p)
	run(t, h, 100)
	if h.Reg(asm.A0) != 41 || h.Reg(asm.A2) != 0 || h.Reg(asm.A3) != 1 || h.Reg(asm.A4) != 42 {
		t.Errorf("lr/sc: a0=%d a2=%d a3=%d a4=%d", h.Reg(asm.A0), h.Reg(asm.A2), h.Reg(asm.A3), h.Reg(asm.A4))
	}
}

func TestAMOAdd(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.LI(asm.T0, ramBase+0x30000)
	p.LI(asm.T1, 100)
	p.SD(asm.T1, asm.T0, 0)
	p.LI(asm.T2, 5)
	p.AMOADDD(asm.A0, asm.T0, asm.T2) // a0 = 100, mem = 105
	p.LD(asm.A1, asm.T0, 0)
	p.ECALL()
	load(t, h, ramBase, p)
	run(t, h, 100)
	if h.Reg(asm.A0) != 100 || h.Reg(asm.A1) != 105 {
		t.Errorf("amoadd: old=%d new=%d", h.Reg(asm.A0), h.Reg(asm.A1))
	}
}

func TestWFIEvent(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.WFI()
	p.NOP()
	load(t, h, ramBase, p)
	ev := h.Step()
	if ev.Kind != EvWFI {
		t.Fatalf("event = %+v", ev)
	}
	if h.PC != ramBase+4 {
		t.Errorf("pc after wfi = %#x", h.PC)
	}
}

func TestMModeEcallStaysInM(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.ECALL()
	load(t, h, ramBase, p)
	ev := run(t, h, 5)
	if ev.Trap.Cause != isa.ExcEcallM || ev.Trap.Target != isa.ModeM {
		t.Fatalf("trap = %+v", ev.Trap)
	}
}

// TrapCount keeps an exception and the interrupt with the same code
// apart, and TrapMix lists the nonzero counts by cause number.
func TestTrapCountTracking(t *testing.T) {
	h := newHart(t)
	p := asm.New(ramBase)
	p.ECALL()
	load(t, h, ramBase, p)
	run(t, h, 5)
	timer := isa.CauseInterruptBit | isa.IntMTimer
	h.TakeTrap(trapInfo{cause: timer})
	h.TakeTrap(trapInfo{cause: timer})
	if got := h.TrapCount(isa.ExcEcallM); got != 1 {
		t.Errorf("TrapCount(ecall-m) = %d, want 1", got)
	}
	if got := h.TrapCount(timer); got != 2 {
		t.Errorf("TrapCount(machine timer) = %d, want 2", got)
	}
	if got := h.TrapCount(isa.IntMTimer); got != 0 {
		t.Errorf("TrapCount(exception %d) = %d, want 0 (the interrupt's count leaked into it)", isa.IntMTimer, got)
	}
	want := []TrapStat{
		{Cause: isa.ExcEcallM, Name: isa.CauseName(isa.ExcEcallM), Count: 1},
		{Cause: timer, Name: isa.CauseName(timer), Count: 2},
	}
	if got := h.TrapMix(); !reflect.DeepEqual(got, want) {
		t.Errorf("TrapMix = %+v, want %+v", got, want)
	}
}

// Property: ADD/SUB/XOR/AND/OR through the interpreter match Go semantics.
func TestALUSemanticsProperty(t *testing.T) {
	h := newHart(t)
	f := func(a, b uint64) bool {
		p := asm.New(ramBase)
		p.LI(asm.A0, int64(a))
		p.LI(asm.A1, int64(b))
		p.ADD(asm.A2, asm.A0, asm.A1)
		p.SUB(asm.A3, asm.A0, asm.A1)
		p.XOR(asm.A4, asm.A0, asm.A1)
		p.AND(asm.A5, asm.A0, asm.A1)
		p.OR(asm.A6, asm.A0, asm.A1)
		p.MUL(asm.T0, asm.A0, asm.A1)
		p.ECALL()
		code, err := p.Assemble()
		if err != nil {
			return false
		}
		if err := h.Mem.Write(ramBase, code); err != nil {
			return false
		}
		h.PC = ramBase
		h.Mode = isa.ModeM
		for i := 0; i < 100; i++ {
			if ev := h.Step(); ev.Kind != EvNone {
				break
			}
		}
		return h.Reg(asm.A2) == a+b && h.Reg(asm.A3) == a-b &&
			h.Reg(asm.A4) == a^b && h.Reg(asm.A5) == a&b &&
			h.Reg(asm.A6) == a|b && h.Reg(asm.T0) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: signed/unsigned division matches spec including the corner
// cases (div by zero, overflow).
func TestDivSemanticsProperty(t *testing.T) {
	f := func(a, b int64) bool {
		wantDiv := divS(a, b)
		wantRem := remS(a, b)
		switch {
		case b == 0:
			return wantDiv == ^uint64(0) && wantRem == uint64(a)
		case a == -1<<63 && b == -1:
			return wantDiv == uint64(a) && wantRem == 0
		default:
			return wantDiv == uint64(a/b) && wantRem == uint64(a%b)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulhReference(t *testing.T) {
	cases := []struct{ a, b int64 }{
		{0, 0}, {1, 1}, {-1, 1}, {-1, -1},
		{1 << 62, 4}, {-1 << 62, 4}, {0x7FFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF},
		{-0x8000000000000000, 2}, {123456789, -987654321},
	}
	for _, c := range cases {
		// Cross-check mulh against big-integer arithmetic via 128-bit split.
		wantHi := func(a, b int64) uint64 {
			// Compute via four 32x32 partials on magnitudes.
			neg := (a < 0) != (b < 0)
			ua, ub := uint64(a), uint64(b)
			if a < 0 {
				ua = uint64(-a)
			}
			if b < 0 {
				ub = uint64(-b)
			}
			hi := mulhu(ua, ub)
			lo := ua * ub
			if neg {
				hi = ^hi
				if lo == 0 {
					hi++
				}
			}
			return hi
		}(c.a, c.b)
		if got := mulh(c.a, c.b); got != wantHi {
			t.Errorf("mulh(%d,%d) = %#x, want %#x", c.a, c.b, got, wantHi)
		}
	}
	// mulhu sanity: (2^32+1)^2 has high word 1.
	if mulhu(1<<32|1, 1<<32|1) != 1 {
		t.Error("mulhu basic identity failed")
	}
}

func TestSfenceFlushesTLB(t *testing.T) {
	h := newHart(t)
	openPMP(t, h)
	h.TLB.Insert(0x1000, ramBase, isa.PTERead, 0, 0, 0)
	p := asm.New(ramBase)
	p.SFENCEVMA(asm.Zero, asm.Zero)
	p.ECALL()
	load(t, h, ramBase, p)
	h.Mode = isa.ModeS
	run(t, h, 10)
	if h.TLB.Occupancy() != 0 {
		t.Error("sfence.vma did not flush the TLB")
	}
}
