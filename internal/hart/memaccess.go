package hart

import (
	"zion/internal/isa"
	"zion/internal/pmp"
	"zion/internal/ptw"
)

func accFaultCause(acc ptw.Access) uint64 {
	switch acc {
	case ptw.AccessRead:
		return isa.ExcLoadAccessFault
	case ptw.AccessWrite:
		return isa.ExcStoreAccessFault
	default:
		return isa.ExcInstAccessFault
	}
}

// vmid returns the current VMID from hgatp.
func (h *Hart) vmid() uint16 {
	return uint16(h.csr.raw(isa.CSRHgatp) >> isa.HgatpVMIDShift & 0x3FFF)
}

// satpRoot extracts the root-table physical address from a satp-format CSR.
func satpRoot(v uint64) uint64 {
	if v>>isa.SatpModeShift == isa.SatpModeBare {
		return 0
	}
	return (v & isa.SatpPPNMask) << isa.PageShift
}

// transOpts derives the walk options from mstatus. The fast path builds
// micro-TLB entries with the same helper so the two can never diverge.
func (h *Hart) transOpts() ptw.Opts {
	mstatus := h.csr.raw(isa.CSRMstatus)
	return ptw.Opts{
		SUM: mstatus&isa.MstatusSUM != 0,
		MXR: mstatus&isa.MstatusMXR != 0,
	}
}

// Translate resolves va for the hart's current mode, charging TLB and
// page-walk cycles, and returns the final physical address. in is the
// in-flight instruction, already decoded (for htinst synthesis on
// guest-page faults); pass nil for fetches. ok is false when the access
// raised the trap ti.
func (h *Hart) Translate(va uint64, acc ptw.Access, in *isa.Inst) (pa uint64, ti trapInfo, ok bool) {
	opts := h.transOpts()
	switch h.Mode {
	case isa.ModeM:
		return va, trapInfo{}, true // no translation; PMP handled by caller
	case isa.ModeS, isa.ModeU:
		root := satpRoot(h.csr.raw(isa.CSRSatp))
		if root == 0 {
			return va, trapInfo{}, true
		}
		opts.User = h.Mode == isa.ModeU
		asid := uint16(h.csr.raw(isa.CSRSatp) >> 44 & 0xFFFF)
		if ppn, perms, level, hit := h.TLB.Lookup(va, asid, 0); hit && permsAllow(perms, acc, opts) {
			h.Cycles += h.Cost.TLBHit
			return ppn<<uint(isa.PageShift+9*level) | va&pageMask(level), trapInfo{}, true
		}
		res, pf, ok := h.walker.Lookup(root, va, acc, opts)
		if !ok {
			return 0, pageFaultInfo(pf, va, nil), false
		}
		h.Cycles += uint64(res.Steps) * h.Cost.WalkStep
		h.TLB.Insert(va&^pageMask(res.Level), res.PA&^pageMask(res.Level), res.PTE&isa.PTEFlagMask, res.Level, asid, 0)
		return res.PA, trapInfo{}, true
	default: // VS / VU
		vsatp := h.csr.raw(isa.CSRVsatp)
		hgatpRoot := satpRoot(h.csr.raw(isa.CSRHgatp))
		if hgatpRoot == 0 {
			// V=1 with no G-stage would be a platform configuration bug.
			return 0, trapInfo{cause: accFaultCause(acc), tval: va}, false
		}
		opts.User = h.Mode == isa.ModeVU
		asid := uint16(vsatp >> 44 & 0xFFFF)
		// With a Bare stage-1 there is no guest privilege check, so TLB
		// hits must not apply one: U pages (stage-2 leaves always carry U)
		// are reachable from both VS and VU.
		hitOpts := opts
		if satpRoot(vsatp) == 0 {
			hitOpts.User, hitOpts.SUM = false, true
		}
		if ppn, perms, level, hit := h.TLB.Lookup(va, asid, h.vmid()); hit && permsAllow(perms, acc, hitOpts) {
			h.Cycles += h.Cost.TLBHit
			return ppn<<uint(isa.PageShift+9*level) | va&pageMask(level), trapInfo{}, true
		}
		var res ptw.TwoStageResult
		pf, ok := h.walker.LookupTwoStage(&res, satpRoot(vsatp), hgatpRoot, va, acc, opts.User)
		if !ok {
			h.Cycles += uint64(res.Steps) * h.Cost.WalkStep
			return 0, pageFaultInfo(pf, va, in), false
		}
		h.Cycles += uint64(res.Steps) * h.Cost.WalkStep
		// Cache the combined VA->PA mapping at the tighter leaf level with
		// the intersection of both stages' permissions, so a later hit can
		// never grant more than the walk would.
		lvl := res.Stage2Leaf.Level
		perms := res.Stage2Leaf.PTE & isa.PTEFlagMask
		if res.Stage1Leaf.PTE != 0 {
			if res.Stage1Leaf.Level < lvl {
				lvl = res.Stage1Leaf.Level
			}
			rwx := uint64(isa.PTERead | isa.PTEWrite | isa.PTEExec)
			perms = perms&^rwx | (perms & res.Stage1Leaf.PTE & rwx)
			perms = perms&^uint64(isa.PTEUser) | res.Stage1Leaf.PTE&isa.PTEUser
		}
		h.TLB.Insert(va&^pageMask(lvl), res.PA&^pageMask(lvl), perms, lvl, asid, h.vmid())
		return res.PA, trapInfo{}, true
	}
}

// permsAllow validates a TLB hit's cached permissions against the access.
// A false result forces a fresh walk, which either faults architecturally
// or refreshes the entry (e.g. after an A/D upgrade).
func permsAllow(perms uint64, acc ptw.Access, opts ptw.Opts) bool {
	if opts.User && perms&isa.PTEUser == 0 {
		return false
	}
	if !opts.User && perms&isa.PTEUser != 0 && !opts.SUM {
		return false
	}
	switch acc {
	case ptw.AccessRead:
		if perms&isa.PTERead == 0 && !(opts.MXR && perms&isa.PTEExec != 0) {
			return false
		}
	case ptw.AccessWrite:
		if perms&isa.PTEWrite == 0 || perms&isa.PTEDirty == 0 {
			return false
		}
	case ptw.AccessFetch:
		if perms&isa.PTEExec == 0 {
			return false
		}
	}
	return true
}

func pageMask(level int) uint64 {
	return (uint64(1) << uint(isa.PageShift+9*level)) - 1
}

// pageFaultInfo converts a ptw fault into trap state, synthesizing htinst
// for guest-page faults caused by loads/stores (the hypervisor's MMIO path).
func pageFaultInfo(pf ptw.PageFault, va uint64, in *isa.Inst) trapInfo {
	ti := trapInfo{cause: pf.Cause(), tval: va}
	if pf.GuestPage {
		ti.tval2 = pf.Addr >> 2
		if in != nil {
			ti.tinst = isa.TransformedInst(*in)
		}
	}
	return ti
}

// MemAccess performs a data access at va: translation, PMP, then RAM or
// bus. For writes val is stored; for reads the loaded value is returned.
// in is the decoded instruction making the access. ok is false when the
// access raised the trap ti.
func (h *Hart) MemAccess(va uint64, size int, write bool, val uint64, in *isa.Inst) (v uint64, ti trapInfo, ok bool) {
	if h.fp != nil {
		if v, ok := h.fp.access(h, va, size, write, val); ok {
			return v, trapInfo{}, true
		}
	}
	acc := ptw.AccessRead
	pacc := pmp.AccessRead
	if write {
		acc, pacc = ptw.AccessWrite, pmp.AccessWrite
	}
	pa, ti, ok := h.Translate(va, acc, in)
	if !ok {
		return 0, ti, false
	}
	fault := trapInfo{cause: accFaultCause(acc), tval: va}
	if !h.PMP.Check(pa, uint64(size), pacc, h.Mode == isa.ModeM) {
		return 0, fault, false
	}
	h.Cycles += h.Cost.Mem
	if h.Mem.Contains(pa, uint64(size)) {
		if write {
			if err := h.Mem.WriteUint(pa, val, size); err != nil {
				return 0, fault, false
			}
			return 0, trapInfo{}, true
		}
		v, err := h.Mem.ReadUint(pa, size)
		if err != nil {
			return 0, fault, false
		}
		return v, trapInfo{}, true
	}
	if h.Bus != nil {
		// Device territory: the access may rearm the hart's own timer or
		// raise a self-IPI, invalidating any event-horizon proof in flight.
		h.asyncGen++
		if out, ok := h.Bus.Access(h.ID, pa, size, write, val); ok {
			return out, trapInfo{}, true
		}
	}
	return 0, fault, false
}

// Fetch reads the 32-bit instruction at PC. ok is false when the fetch
// raised the trap ti.
func (h *Hart) Fetch() (raw uint32, ti trapInfo, ok bool) {
	pa, ti, ok := h.Translate(h.PC, ptw.AccessFetch, nil)
	if !ok {
		return 0, ti, false
	}
	fault := trapInfo{cause: isa.ExcInstAccessFault, tval: h.PC}
	if !h.PMP.Check(pa, 4, pmp.AccessExec, h.Mode == isa.ModeM) || !h.Mem.Contains(pa, 4) {
		return 0, fault, false
	}
	raw, err := h.Mem.ReadUint32(pa)
	if err != nil {
		return 0, fault, false
	}
	return raw, trapInfo{}, true
}
