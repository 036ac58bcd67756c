package hart

import (
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// Step executes one instruction at PC in the hart's current mode and
// returns the resulting event: EvNone for a retired instruction, EvTrap
// when a trap entry occurred (including interrupts detected before the
// fetch), and EvWFI when the hart idles. Step is the reference
// interpreter: fetch, decode, execute, with no instruction caching. Run
// is the guest run loop; it drives the fast path and falls back to Step
// whenever the fast path declines.
func (h *Hart) Step() Event {
	// Interrupts are sampled at instruction boundaries.
	if cause, ok := h.PendingInterrupt(); ok {
		t := h.TakeTrap(trapInfo{cause: cause})
		return Event{Kind: EvTrap, Trap: t}
	}
	raw, ti, ok := h.Fetch()
	if !ok {
		return Event{Kind: EvTrap, Trap: h.TakeTrap(ti)}
	}
	if h.Prof != nil && h.Cycles >= h.Prof.Next {
		h.Prof.Sample(h.PC, h.Mode.String(), telemetry.ProfTierSlow, h.Cycles)
	}
	h.inst = isa.Decode(raw)
	return h.execute(&h.inst)
}

// Clock is the timer a run loop samples: the hart's next machine-timer
// deadline and whether it is armed. platform.CLINT implements it.
type Clock interface {
	NextDeadline(hart int) (deadline uint64, armed bool)
}

// Run executes instructions until one raises an event the caller must
// handle, or until budget Step-equivalents have been performed. It
// returns the number performed and the event: EvTrap, EvWFI, EvHalt, or
// EvNone when the budget ran out. Run is the only owner of the run-loop
// protocol, one iteration of which is:
//
//  1. park at the quantum barrier (CheckYield); global halt is EvHalt;
//  2. sample clock's deadline, clamp it to the quantum deadline, and run
//     a batch on the fast path (superblock.go), which re-checks the
//     deadline, clears MTIP and samples interrupts at every boundary the
//     per-step loop would, and takes a fetch the micro-TLB cannot fill
//     through Step itself;
//  3. when the batch stops without an event (deadline reached, a PC or
//     page the fast path leaves to Step, or a device access that may have
//     rearmed the timer), set MTIP iff the timer is armed and Cycles has
//     reached it, then take one Step.
//
// The result is bit-identical to refreshing MTIP and calling Step once
// per instruction: the fast path replays the slow path's accounting and
// both feed the same execute().
func (h *Hart) Run(clock Clock, budget uint64) (uint64, Event) {
	var steps uint64
	for steps < budget {
		if !h.CheckYield() {
			return steps, Event{Kind: EvHalt}
		}
		if h.fp != nil {
			dl, armed := h.batchDeadline(clock.NextDeadline(h.ID))
			n, ev, ok := h.fp.runBatch(h, dl, armed, budget-steps)
			steps += n
			if ok {
				return steps, ev
			}
			if steps >= budget {
				break
			}
		}
		h.SyncTimer(clock)
		steps++
		if ev := h.Step(); ev.Kind != EvNone {
			return steps, ev
		}
	}
	return steps, Event{}
}

// SyncTimer refreshes the machine-timer pending bit from clock: set when
// the timer is armed and Cycles has reached its deadline, clear otherwise.
func (h *Hart) SyncTimer(clock Clock) {
	if dl, armed := clock.NextDeadline(h.ID); armed && h.Cycles >= dl {
		h.SetPending(isa.IntMTimer)
	} else {
		h.ClearPending(isa.IntMTimer)
	}
}

// IdleUntilTimer fast-forwards a hart that retired WFI to clock's armed
// deadline and charges the wake-up. It returns false, leaving the hart
// untouched, when no deadline lies ahead: nothing will ever wake it.
func (h *Hart) IdleUntilTimer(clock Clock) bool {
	dl, armed := clock.NextDeadline(h.ID)
	if !armed || dl <= h.Cycles {
		return false
	}
	h.Cycles = dl
	h.Advance(h.Cost.WFIWake)
	return true
}

// execute retires one decoded instruction: the shared back half of Step.
// Register/PC-only ops run their opTable handler; the cases below are the
// ops that reach memory, can trap, or touch privileged state.
func (h *Hart) execute(in *isa.Inst) Event {
	raw := in.Raw
	if in.Op == isa.OpInvalid {
		return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
	}
	oi := &opTable[in.Op]
	h.Instret++
	h.Cycles += h.Cost.retire(oi.cls)
	if oi.fn != nil {
		if oi.fn(h, in) {
			h.Cycles += h.Cost.Branch
		} else {
			h.PC += 4
		}
		return Event{Kind: EvNone}
	}

	rs1 := h.X[in.Rs1]
	rs2 := h.X[in.Rs2]
	width := int(oi.width)

	switch in.Op {
	case isa.OpLRW, isa.OpLRD:
		v, ti, ok := h.MemAccess(rs1, width, false, 0, in)
		if !ok {
			return h.exception(ti)
		}
		h.resValid, h.resAddr = true, rs1
		h.SetReg(in.Rd, oi.value(v))
	case isa.OpSCW, isa.OpSCD:
		if h.resValid && h.resAddr == rs1 {
			if _, ti, ok := h.MemAccess(rs1, width, true, rs2, in); !ok {
				return h.exception(ti)
			}
			h.SetReg(in.Rd, 0)
		} else {
			h.SetReg(in.Rd, 1)
		}
		h.resValid = false

	case isa.OpAMOSWAPW, isa.OpAMOADDW, isa.OpAMOXORW, isa.OpAMOANDW, isa.OpAMOORW,
		isa.OpAMOSWAPD, isa.OpAMOADDD, isa.OpAMOXORD, isa.OpAMOANDD, isa.OpAMOORD:
		old, ti, ok := h.MemAccess(rs1, width, false, 0, in)
		if !ok {
			return h.exception(ti)
		}
		var nw uint64
		switch in.Op {
		case isa.OpAMOSWAPW, isa.OpAMOSWAPD:
			nw = rs2
		case isa.OpAMOADDW, isa.OpAMOADDD:
			nw = old + rs2
		case isa.OpAMOXORW, isa.OpAMOXORD:
			nw = old ^ rs2
		case isa.OpAMOANDW, isa.OpAMOANDD:
			nw = old & rs2
		case isa.OpAMOORW, isa.OpAMOORD:
			nw = old | rs2
		}
		if _, ti, ok := h.MemAccess(rs1, width, true, nw, in); !ok {
			return h.exception(ti)
		}
		h.SetReg(in.Rd, oi.value(old))

	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI:
		if ev, done := h.execCSR(in, rs1); done {
			return ev
		}

	case isa.OpECALL:
		var cause uint64
		switch h.Mode {
		case isa.ModeU:
			cause = isa.ExcEcallU
		case isa.ModeS:
			cause = isa.ExcEcallS
		case isa.ModeVS:
			cause = isa.ExcEcallVS
		case isa.ModeVU:
			cause = isa.ExcEcallU
		case isa.ModeM:
			cause = isa.ExcEcallM
		}
		return h.exception(trapInfo{cause: cause})

	case isa.OpEBREAK:
		return h.exception(trapInfo{cause: isa.ExcBreakpoint, tval: h.PC})

	case isa.OpSRET:
		if h.Mode == isa.ModeU || h.Mode == isa.ModeVU {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		if h.Mode == isa.ModeS && h.csr.raw(isa.CSRMstatus)&isa.MstatusTSR != 0 {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.SRet()
		return Event{Kind: EvNone}

	case isa.OpMRET:
		if h.Mode != isa.ModeM {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.MRet()
		return Event{Kind: EvNone}

	case isa.OpWFI:
		h.PC += 4
		return Event{Kind: EvWFI}

	case isa.OpSFENCEVMA:
		if h.Mode == isa.ModeU || h.Mode == isa.ModeVU {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.flushSfence(in, rs1, rs2)

	case isa.OpHFENCEVVMA, isa.OpHFENCEGVMA:
		if h.Mode.Virtualized() {
			return h.exception(trapInfo{cause: isa.ExcVirtualInst, tval: uint64(raw)})
		}
		if h.Mode != isa.ModeM && h.Mode != isa.ModeS {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.Cycles += h.Cost.TLBFlushAll
		h.TLB.FlushAll() // conservative over-flush for hfence

	default: // plain loads and stores
		va := rs1 + uint64(in.Imm)
		if oi.cls == clsStore {
			if _, ti, ok := h.MemAccess(va, width, true, rs2, in); !ok {
				return h.exception(ti)
			}
			break
		}
		v, ti, ok := h.MemAccess(va, width, false, 0, in)
		if !ok {
			return h.exception(ti)
		}
		h.SetReg(in.Rd, oi.value(v))
	}

	h.PC += 4
	return Event{Kind: EvNone}
}

// exception runs the trap-entry sequence for an exception raised mid-
// instruction (PC still points at the trapping instruction).
func (h *Hart) exception(ti trapInfo) Event {
	return Event{Kind: EvTrap, Trap: h.TakeTrap(ti)}
}

// execCSR handles the Zicsr operations. done=true means a trap was taken.
func (h *Hart) execCSR(in *isa.Inst, rs1 uint64) (Event, bool) {
	var src uint64
	if in.Op == isa.OpCSRRWI || in.Op == isa.OpCSRRSI || in.Op == isa.OpCSRRCI {
		src = uint64(in.Imm)
	} else {
		src = rs1
	}

	readNeeded := true
	if (in.Op == isa.OpCSRRW || in.Op == isa.OpCSRRWI) && in.Rd == 0 {
		readNeeded = false
	}
	var old uint64
	if readNeeded {
		v, e := h.readCSR(in.CSR)
		if e != csrOK {
			return h.csrTrap(e, in), true
		}
		old = v
	}

	writeNeeded := true
	var nw uint64
	switch in.Op {
	case isa.OpCSRRW, isa.OpCSRRWI:
		nw = src
	case isa.OpCSRRS, isa.OpCSRRSI:
		nw = old | src
		writeNeeded = in.Rs1 != 0 || in.Op == isa.OpCSRRSI && in.Imm != 0
	case isa.OpCSRRC, isa.OpCSRRCI:
		nw = old &^ src
		writeNeeded = in.Rs1 != 0 || in.Op == isa.OpCSRRCI && in.Imm != 0
	}
	if writeNeeded {
		if e := h.writeCSR(in.CSR, nw); e != csrOK {
			return h.csrTrap(e, in), true
		}
		// satp/vsatp/hgatp writes require address-translation resync.
		switch remap(in.CSR, h.Mode.Virtualized()) {
		case isa.CSRSatp, isa.CSRVsatp, isa.CSRHgatp:
			h.TLB.FlushAll()
			h.Cycles += h.Cost.TLBFlushAll
		}
	}
	h.SetReg(in.Rd, old)
	return Event{}, false
}

func (h *Hart) csrTrap(e csrErr, in *isa.Inst) Event {
	cause := uint64(isa.ExcIllegalInst)
	if e == csrVirtual {
		cause = isa.ExcVirtualInst
	}
	return h.exception(trapInfo{cause: cause, tval: uint64(in.Raw)})
}

// flushSfence implements sfence.vma rs1 (va), rs2 (asid).
func (h *Hart) flushSfence(in *isa.Inst, va, asid uint64) {
	vmid := uint16(0)
	if h.Mode.Virtualized() {
		vmid = h.vmid()
	}
	switch {
	case in.Rs1 == 0 && in.Rs2 == 0:
		h.TLB.FlushAll()
		h.Cycles += h.Cost.TLBFlushAll
	case in.Rs1 == 0:
		h.TLB.FlushASID(uint16(asid), vmid)
		h.Cycles += h.Cost.TLBFlushAll / 2
	default:
		h.TLB.FlushPage(va, uint16(asid), vmid)
		h.Cycles += h.Cost.TLBFlushAll / 4
	}
}
