package hart

import "zion/internal/isa"

// GuestContext is a vCPU's VS-level register context between runs: the
// GPRs, the resume PC and privilege mode, the seven VS CSRs, the guest's
// own timer deadline and its pending VS interrupts. The hypervisor keeps
// it for a normal VM's vCPUs; the Secure Monitor keeps it, inside its own
// footprint, for a confidential VM's (§IV.B). The world switch moves the same registers
// either way; only who may read the saved copy differs.
type GuestContext struct {
	X    [32]uint64
	PC   uint64
	Mode isa.PrivMode // VS or VU at the moment of exit

	// Guest supervisor CSRs saved/restored on the world switch.
	Vsstatus, Vsepc, Vscause, Vstval, Vstvec, Vsscratch, Vsatp uint64

	// Guest timer deadline (absolute cycles; 0 = disarmed).
	TimerDeadline uint64

	// Hvip is the guest's pending VS interrupts: VSTIP injected by the
	// timer and not yet withdrawn with set_timer, VSSIP the guest raised
	// through sip. They follow the vCPU, not the hart: Save records them
	// and StartQuantum installs them in place of the previous guest's.
	Hvip uint64

	// quantumEnd is the current run's quantum end (absolute cycles; 0 =
	// no quantum), fixed once by StartQuantum.
	quantumEnd uint64
}

// guestContextRegs is how many registers one Save or Load moves: the 31
// writable GPRs and the seven VS CSRs.
const guestContextRegs = 31 + 7

// Save copies the hart's GPRs and VS CSRs into g, charging one register
// copy each; hvip rides along uncharged, so exit costs are those of the
// registers the world switch always moved. PC, Mode and TimerDeadline are
// the caller's: only the exit site knows where and how the guest resumes.
func (g *GuestContext) Save(h *Hart) {
	g.X = h.X
	r := &h.csr.regs
	g.Hvip = r[isa.CSRHvip]
	g.Vsstatus = r[isa.CSRVsstatus]
	g.Vsepc = r[isa.CSRVsepc]
	g.Vscause = r[isa.CSRVscause]
	g.Vstval = r[isa.CSRVstval]
	g.Vstvec = r[isa.CSRVstvec]
	g.Vsscratch = r[isa.CSRVsscratch]
	g.Vsatp = r[isa.CSRVsatp]
	h.Advance(guestContextRegs * h.Cost.RegCopy)
}

// Load installs g's GPRs (x0 stays zero) and VS CSRs on the hart,
// charging one register copy each. The six plain VS CSRs have no WARL
// rule and are stored directly; vsatp keeps storeCSR's mode check,
// because a restored snapshot blob may carry any value there.
func (g *GuestContext) Load(h *Hart) {
	h.X = g.X
	h.X[0] = 0
	r := &h.csr.regs
	r[isa.CSRVsstatus] = g.Vsstatus
	r[isa.CSRVsepc] = g.Vsepc
	r[isa.CSRVscause] = g.Vscause
	r[isa.CSRVstval] = g.Vstval
	r[isa.CSRVstvec] = g.Vstvec
	r[isa.CSRVsscratch] = g.Vsscratch
	h.storeCSR(isa.CSRVsatp, g.Vsatp)
	h.Advance(guestContextRegs * h.Cost.RegCopy)
}

// Resume returns from M-mode into the guest at g.PC in g.Mode (mret with
// MPV set): the last step of either world switch's entry half.
func (g *GuestContext) Resume(h *Hart) {
	mpp := uint64(1) // VS
	if g.Mode == isa.ModeVU {
		mpp = 0
	}
	f := h.csr
	mst := f.raw(isa.CSRMstatus)
	f.setRaw(isa.CSRMstatus, mst&^isa.MstatusMPP|mpp<<isa.MstatusMPPShift|isa.MstatusMPV)
	f.setRaw(isa.CSRMepc, g.PC)
	h.mmuGen++ // what storeCSR's mstatus case does
	h.MRet()
}

// TimerClock is the machine timer the guest timer programs;
// platform.CLINT implements it. The guest timer is one rule for both VM
// kinds: each run fixes its quantum end once, at entry, and every arm
// programs the earlier of that end and the guest's deadline, or disarms
// when neither is set, so neither set_timer nor an injection extends the
// quantum. Callers pass their own cycle charges per arm and injection.
type TimerClock interface {
	Clock
	SetTimer(hart int, deadline uint64)
	DisarmTimer(hart int)
}

const vstip = 1 << isa.IntVSTimer

// StartQuantum fixes this run's quantum end (none when quantum is 0),
// installs the guest's own hvip in place of the previous guest's and arms
// the timer.
func (g *GuestContext) StartQuantum(h *Hart, clk TimerClock, quantum, armCost uint64) {
	g.quantumEnd = 0
	if quantum > 0 {
		g.quantumEnd = h.Cycles + quantum
	}
	h.csr.setRaw(isa.CSRHvip, g.Hvip)
	g.arm(h, clk, armCost)
}

// SetTimer is SBI set_timer: deadline replaces the guest's (0 cancels it)
// and withdraws a pending injected timer interrupt.
func (g *GuestContext) SetTimer(h *Hart, clk TimerClock, deadline, armCost uint64) {
	g.TimerDeadline = deadline
	h.csr.setRaw(isa.CSRHvip, h.csr.raw(isa.CSRHvip)&^vstip)
	g.arm(h, clk, armCost)
}

// TimerTrap handles a machine-timer interrupt taken from the guest. When
// the guest's deadline has passed it injects hvip.VSTIP, re-arms, resumes
// the guest (mret) and returns true. Otherwise the quantum expired: it
// returns false and leaves mepc at the interrupted instruction.
func (g *GuestContext) TimerTrap(h *Hart, clk TimerClock, armCost, injectCost uint64) bool {
	if g.TimerDeadline == 0 || h.Cycles < g.TimerDeadline {
		return false
	}
	g.TimerDeadline = 0
	h.Advance(injectCost)
	h.csr.setRaw(isa.CSRHvip, h.csr.raw(isa.CSRHvip)|vstip)
	g.arm(h, clk, armCost)
	h.MRet()
	return true
}

// arm programs the comparator.
func (g *GuestContext) arm(h *Hart, clk TimerClock, armCost uint64) {
	dl := g.quantumEnd
	if g.TimerDeadline != 0 && (dl == 0 || g.TimerDeadline < dl) {
		dl = g.TimerDeadline
	}
	if dl != 0 {
		clk.SetTimer(h.ID, dl)
	} else {
		clk.DisarmTimer(h.ID)
	}
	h.Advance(armCost)
}
