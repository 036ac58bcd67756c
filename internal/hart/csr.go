package hart

import (
	"fmt"

	"zion/internal/isa"
)

// csrFile stores control-and-status registers. Supervisor CSR accesses
// from VS-mode are remapped to the vs* shadow registers, and sstatus/sip/
// sie are implemented as architectural views of their machine-level
// backing registers, following the hypervisor-extension rules.
// The backing store is a flat array over the 12-bit CSR address space:
// the interpreter reads half a dozen CSRs per instruction (interrupt
// sampling, translation context), which makes a map-backed file the
// single largest host-time cost in the whole simulator.
type csrFile struct {
	regs [4096]uint64
}

func newCSRFile(hartID uint64) *csrFile {
	f := &csrFile{}
	f.regs[isa.CSRMhartid] = hartID
	f.regs[isa.CSRMisa] = (2 << 62) | // RV64
		1<<0 | 1<<7 | 1<<8 | 1<<12 | 1<<18 | 1<<20 // A, H, I, M, S, U
	return f
}

// sstatusMask selects the mstatus bits visible through sstatus.
const sstatusMask = isa.MstatusSIE | isa.MstatusSPIE | isa.MstatusSPP |
	isa.MstatusSUM | isa.MstatusMXR

// sipMask selects supervisor-visible interrupt bits.
const sipMask = uint64(1<<isa.IntSSoft | 1<<isa.IntSTimer | 1<<isa.IntSExt)

// vsInterruptMask selects the VS-level bits of hip/hie/hvip.
const vsInterruptMask = uint64(1<<isa.IntVSSoft | 1<<isa.IntVSTimer | 1<<isa.IntVSExt)

// raw reads the backing storage without remapping or side effects.
func (f *csrFile) raw(addr uint16) uint64 { return f.regs[addr&0xFFF] }

// setRaw writes backing storage without remapping (trap entry, Go firmware).
func (f *csrFile) setRaw(addr uint16, v uint64) { f.regs[addr&0xFFF] = v }

// remap translates a supervisor CSR address to its VS shadow when the
// access comes from a virtualized mode.
func remap(addr uint16, virt bool) uint16 {
	if !virt {
		return addr
	}
	switch addr {
	case isa.CSRSstatus:
		return isa.CSRVsstatus
	case isa.CSRSie:
		return isa.CSRVsie
	case isa.CSRStvec:
		return isa.CSRVstvec
	case isa.CSRSscratch:
		return isa.CSRVsscratch
	case isa.CSRSepc:
		return isa.CSRVsepc
	case isa.CSRScause:
		return isa.CSRVscause
	case isa.CSRStval:
		return isa.CSRVstval
	case isa.CSRSip:
		return isa.CSRVsip
	case isa.CSRSatp:
		return isa.CSRVsatp
	}
	return addr
}

// csrErr distinguishes the two failure exceptions a CSR access can raise.
type csrErr int

const (
	csrOK csrErr = iota
	csrIllegal
	csrVirtual // virtual-instruction exception (VS touching h*/vs* directly)
)

// checkPriv validates that mode may touch addr.
func checkPriv(addr uint16, mode isa.PrivMode) csrErr {
	minPriv := (addr >> 8) & 3
	virt := mode.Virtualized()
	switch {
	case minPriv == 3 && mode != isa.ModeM:
		return csrIllegal
	case minPriv == 2: // hypervisor or VS CSR
		if mode == isa.ModeM {
			return csrOK
		}
		if virt {
			return csrVirtual // VS/VU touching h*/vs* raises virtual-instruction
		}
		if mode == isa.ModeS {
			return csrOK
		}
		return csrIllegal
	case minPriv == 1:
		if mode == isa.ModeU || mode == isa.ModeVU {
			return csrIllegal
		}
	}
	return csrOK
}

// read returns the CSR value as seen from mode. The hart passes its
// counters so cycle/time/instret reads reflect execution.
func (h *Hart) readCSR(addr uint16) (uint64, csrErr) {
	if e := checkPriv(addr, h.Mode); e != csrOK {
		return 0, e
	}
	virt := h.Mode.Virtualized()
	addr = remap(addr, virt)
	f := h.csr
	switch addr {
	case isa.CSRCycle, isa.CSRTime:
		return h.Cycles, csrOK
	case isa.CSRInstret:
		return h.Instret, csrOK
	case isa.CSRSstatus:
		return f.raw(isa.CSRMstatus) & sstatusMask, csrOK
	case isa.CSRSie:
		return f.raw(isa.CSRMie) & sipMask & f.raw(isa.CSRMideleg), csrOK
	case isa.CSRSip:
		return f.raw(isa.CSRMip) & sipMask & f.raw(isa.CSRMideleg), csrOK
	case isa.CSRVsstatus:
		return f.raw(isa.CSRVsstatus), csrOK
	case isa.CSRVsie:
		// vsie is the VS bits of hie shifted into supervisor positions.
		return (f.raw(isa.CSRHie) & vsInterruptMask & f.raw(isa.CSRHideleg)) >> 1, csrOK
	case isa.CSRVsip:
		return (h.hip() & vsInterruptMask & f.raw(isa.CSRHideleg)) >> 1, csrOK
	case isa.CSRHip:
		return h.hip(), csrOK
	case isa.CSRPmpcfg0:
		return h.PMP.ReadCfgCSR(0), csrOK
	case isa.CSRPmpcfg2:
		return h.PMP.ReadCfgCSR(2), csrOK
	}
	if addr >= isa.CSRPmpaddr0 && addr <= isa.CSRPmpaddr15 {
		return h.PMP.Addr(int(addr - isa.CSRPmpaddr0)), csrOK
	}
	return f.raw(addr), csrOK
}

// csrReadOnly reports whether addr lies in the read-only range
// 0xC00-0xFFF (counters and machine information registers).
func csrReadOnly(addr uint16) bool { return addr>>10 == 3 }

// writeCSR updates a CSR as seen from mode: the privilege check and the
// VS remap, then storeCSR. A virtualized mode writes only the VS shadows:
// any other CSR it may name would land in the hart's own register, outside
// every saved guest context, so that write is ignored.
func (h *Hart) writeCSR(addr uint16, v uint64) csrErr {
	if csrReadOnly(addr) {
		return csrIllegal
	}
	if e := checkPriv(addr, h.Mode); e != csrOK {
		return e
	}
	virt := h.Mode.Virtualized()
	if to := remap(addr, virt); to != addr || !virt {
		h.storeCSR(to, v)
	}
	return csrOK
}

// GuestWritableCSRs lists, in address order, every CSR address a csrw
// from VS or VU mode passes the privilege and read-only checks for: the
// set a guest can name in a write, whatever becomes of it.
func GuestWritableCSRs() []uint16 {
	var out []uint16
	for a := uint16(0); a <= 0xFFF; a++ {
		if !csrReadOnly(a) && (checkPriv(a, isa.ModeVS) == csrOK || checkPriv(a, isa.ModeVU) == csrOK) {
			out = append(out, a)
		}
	}
	return out
}

// storeCSR writes v to the (already remapped) register addr under its WARL
// rules: views write through to their backing register, read-only bits
// and fields keep their value, and writes that can change translation
// bump mmuGen.
func (h *Hart) storeCSR(addr uint16, v uint64) {
	f := h.csr
	switch addr {
	case isa.CSRSstatus:
		cur := f.raw(isa.CSRMstatus)
		f.setRaw(isa.CSRMstatus, cur&^sstatusMask|v&sstatusMask)
		h.mmuGen++ // SUM/MXR may have changed
	case isa.CSRMstatus:
		f.setRaw(addr, v)
		h.mmuGen++
	case isa.CSRSie:
		deleg := f.raw(isa.CSRMideleg) & sipMask
		cur := f.raw(isa.CSRMie)
		f.setRaw(isa.CSRMie, cur&^deleg|v&deleg)
	case isa.CSRSip:
		// Only SSIP is software-writable at S level.
		deleg := f.raw(isa.CSRMideleg) & (1 << isa.IntSSoft)
		cur := f.raw(isa.CSRMip)
		f.setRaw(isa.CSRMip, cur&^deleg|v&deleg)
	case isa.CSRVsie:
		deleg := f.raw(isa.CSRHideleg) & vsInterruptMask
		cur := f.raw(isa.CSRHie)
		f.setRaw(isa.CSRHie, cur&^deleg|(v<<1)&deleg)
	case isa.CSRVsip:
		deleg := f.raw(isa.CSRHideleg) & (1 << isa.IntVSSoft)
		cur := f.raw(isa.CSRHvip)
		f.setRaw(isa.CSRHvip, cur&^deleg|(v<<1)&deleg)
	case isa.CSRMip:
		// MSIP, MTIP and MEIP are driven by the platform (CLINT, external
		// lines) and read-only to software.
		const ro = 1<<isa.IntMSoft | 1<<isa.IntMTimer | 1<<isa.IntMExt
		f.setRaw(addr, f.raw(addr)&ro|v&^ro)
	case isa.CSRMisa, isa.CSRMhartid:
		// WARL: ignore writes
	case isa.CSRMedeleg:
		// ecall-from-M (11) is never delegatable.
		v &^= uint64(1) << isa.ExcEcallM
		f.setRaw(addr, v)
	case isa.CSRHedeleg:
		// Per spec, ecall-from-VS (10), ecall-from-HS (9), and the
		// guest-page faults (20,21,23) are read-only zero in hedeleg.
		v &^= uint64(1)<<isa.ExcEcallVS | uint64(1)<<isa.ExcEcallS |
			uint64(1)<<isa.ExcInstGuestPageFault | uint64(1)<<isa.ExcLoadGuestPageFault |
			uint64(1)<<isa.ExcStoreGuestPageFault | uint64(1)<<isa.ExcVirtualInst
		f.setRaw(addr, v)
	case isa.CSRPmpcfg0:
		h.PMP.WriteCfgCSR(0, v)
	case isa.CSRPmpcfg2:
		h.PMP.WriteCfgCSR(2, v)
	case isa.CSRSatp, isa.CSRVsatp, isa.CSRHgatp:
		// Accept Bare and Sv39/Sv39x4 only; other modes are WARL->ignore.
		m := v >> isa.SatpModeShift
		if m == isa.SatpModeBare || m == isa.SatpModeSv39 {
			f.setRaw(addr, v)
			h.mmuGen++
		}
	default:
		if addr >= isa.CSRPmpaddr0 && addr <= isa.CSRPmpaddr15 {
			h.PMP.SetAddr(int(addr-isa.CSRPmpaddr0), v)
		} else {
			f.setRaw(addr, v)
		}
	}
}

// hip composes the hypervisor interrupt-pending view: hvip bits plus any
// externally injected VS-level pending bits in mip.
func (h *Hart) hip() uint64 {
	return (h.csr.raw(isa.CSRHvip) | h.csr.raw(isa.CSRMip)) & (vsInterruptMask | 1<<isa.IntSGuestEx)
}

// CSR is the public accessor used by the Go-implemented privileged
// software (SM, hypervisor, guest kernel) to read architectural registers
// without privilege checks — those components conceptually *are* the
// software running at their privilege level.
func (h *Hart) CSR(addr uint16) uint64 {
	switch addr {
	case isa.CSRCycle, isa.CSRTime:
		return h.Cycles
	case isa.CSRInstret:
		return h.Instret
	case isa.CSRHip:
		return h.hip()
	}
	return h.csr.raw(addr)
}

// SetCSR writes an architectural register on behalf of privileged Go
// software, bypassing mode checks but honouring WARL masks. It stores
// exactly what an M-mode csrw would and leaves h.Mode alone; a write to
// the read-only range panics.
func (h *Hart) SetCSR(addr uint16, v uint64) {
	if csrReadOnly(addr) {
		panic(fmt.Sprintf("hart: firmware write to read-only CSR %#x", addr))
	}
	h.storeCSR(addr, v)
}

// CSRList names the registers of a world-switch context that SaveCSRs
// and LoadCSRs move in one pass. NewCSRList admits only plain registers,
// whose store is a copy into their own backing register once the value
// passed the register's WARL rule; the check runs once, when the list is
// built, not on every world switch.
type CSRList struct{ addrs []uint16 }

// NewCSRList builds a CSRList. It panics on a register whose store is more
// than a copy: a view (sstatus, sie, sip, vsie, vsip), mip, misa, mhartid,
// a PMP register, or a read-only CSR.
func NewCSRList(addrs ...uint16) CSRList {
	for _, a := range addrs {
		if !plainCSR(a) {
			panic(fmt.Sprintf("hart: CSR %#x is not a plain register", a))
		}
	}
	return CSRList{addrs: append([]uint16(nil), addrs...)}
}

// plainCSR reports whether a store to addr is a copy into its own backing
// register once the value passed the register's WARL rule.
func plainCSR(addr uint16) bool {
	switch addr {
	case isa.CSRSstatus, isa.CSRSie, isa.CSRSip, isa.CSRVsie, isa.CSRVsip,
		isa.CSRMip, isa.CSRMisa, isa.CSRMhartid, isa.CSRPmpcfg0, isa.CSRPmpcfg2:
		return false
	}
	return addr <= 0xFFF && !csrReadOnly(addr) &&
		(addr < isa.CSRPmpaddr0 || addr > isa.CSRPmpaddr15)
}

// SaveCSRs copies list's registers into dst, index for index, straight
// from the CSR file: the firmware half of a world switch saving the
// context it must put back. dst must hold one value per register.
func (h *Hart) SaveCSRs(list CSRList, dst []uint64) {
	dst = dst[:len(list.addrs)]
	for i, a := range list.addrs {
		dst[i] = h.csr.regs[a&0xFFF]
	}
}

// LoadCSRs stores src[i] into list's register i straight into the CSR
// file and bumps the translation epoch once, for the whole context. It
// skips storeCSR's WARL rules, so a value must be one this hart's CSR file
// already held (read back by SaveCSRs) or a firmware constant storeCSR
// would store unchanged; every other CSR store still goes through
// storeCSR or trap entry.
func (h *Hart) LoadCSRs(list CSRList, src []uint64) {
	src = src[:len(list.addrs)]
	for i, a := range list.addrs {
		h.csr.regs[a&0xFFF] = src[i]
	}
	h.mmuGen++
}
