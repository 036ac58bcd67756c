package hart

import "zion/internal/isa"

// GuestContext is a vCPU's VS-level register context between runs: the
// GPRs, the resume PC and privilege mode, the seven VS CSRs and the
// guest's own timer deadline. The hypervisor keeps it for a normal VM's
// vCPUs; the Secure Monitor keeps it, inside its own footprint, for a
// confidential VM's (§IV.B). The world switch moves the same registers
// either way; only who may read the saved copy differs.
type GuestContext struct {
	X    [32]uint64
	PC   uint64
	Mode isa.PrivMode // VS or VU at the moment of exit

	// Guest supervisor CSRs saved/restored on the world switch.
	Vsstatus, Vsepc, Vscause, Vstval, Vstvec, Vsscratch, Vsatp uint64

	// Guest timer deadline (absolute cycles; 0 = disarmed).
	TimerDeadline uint64
}

// guestContextRegs is how many registers one Save or Load moves: the 31
// writable GPRs and the seven VS CSRs.
const guestContextRegs = 31 + 7

// Save copies the hart's GPRs and VS CSRs into g, charging one register
// copy each. PC, Mode and TimerDeadline are the caller's: only the exit
// site knows where and how the guest resumes.
func (g *GuestContext) Save(h *Hart) {
	g.X = h.X
	r := &h.csr.regs
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
