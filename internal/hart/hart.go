// Package hart implements the simulated RISC-V hart: an RV64IMA
// interpreter with the four privilege modes ZION uses (M, HS, VS, VU),
// full trap-entry/return semantics, two-level trap delegation
// (medeleg/hedeleg, mideleg/hideleg), PMP-checked physical access, a
// TLB-fronted two-stage MMU, and a calibrated cycle model.
//
// The interpreter executes guest code (VS/VU). M-mode and HS-mode
// software — ZION's Secure Monitor and the KVM-like hypervisor — are Go
// components: when a trap targets one of those modes the hart performs the
// architectural entry sequence (CSR updates, privilege switch) and then
// surrenders control to the platform, which invokes the registered Go
// handler. The handler manipulates the same architectural state real
// firmware would, then resumes interpretation with MRet/SRet.
package hart

import (
	"fmt"

	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
	"zion/internal/tlb"
)

// Bus receives physical accesses that fall outside RAM (CLINT, UART,
// virtio-mmio windows for normal VMs). ok=false means no device claims
// the address and the access faults.
type Bus interface {
	Access(hartID int, pa uint64, size int, write bool, val uint64) (out uint64, ok bool)
}

// EventKind classifies why Step or Run returned control.
type EventKind uint8

// Event kinds.
const (
	EvNone EventKind = iota // instruction retired, keep stepping
	EvTrap                  // trap entered; Trap describes it
	EvWFI                   // hart executed wfi and is idle
	EvHalt                  // Run only: the parallel engine halted every hart
)

// Trap describes an architectural trap after the entry sequence ran.
type Trap struct {
	Cause  uint64 // with isa.CauseInterruptBit for interrupts
	Tval   uint64
	Tval2  uint64 // guest-page faults: GPA >> 2
	Tinst  uint64 // transformed instruction for MMIO emulation
	Target isa.PrivMode
	From   isa.PrivMode
	PC     uint64 // pc of the trapping instruction
}

// Event is the result of one Step.
type Event struct {
	Kind EventKind
	Trap Trap
}

// Hart is one simulated core.
type Hart struct {
	ID   int
	PC   uint64
	X    [32]uint64
	Mode isa.PrivMode

	PMP  *pmp.Unit
	TLB  *tlb.TLB
	Mem  *mem.PhysMemory
	Bus  Bus
	Cost *Costs

	Cycles  uint64
	Instret uint64

	csr    *csrFile
	walker ptw.Walker

	// fp is the fast-path engine (fastpath.go), attached by New; nil
	// after DisableFastPath (pure slow path). mmuGen is the translation-
	// context epoch it validates against: bumped on every write that could
	// change how virtual addresses resolve (satp/vsatp/hgatp/mstatus,
	// including the sstatus view).
	fp     *fastPath
	mmuGen uint64
	// asyncGen is the device-event epoch: bumped whenever an instruction
	// reaches the bus (CLINT, UART, virtio windows). A bus access is the
	// only way interpreted code can change asynchronous-event state from
	// inside a straight-line run — reprogram its own mtimecmp, raise a
	// self-IPI via msip — so the superblock dispatch loop re-checks it
	// after every instruction and the batch hands control back to Run
	// when it moved, forcing a fresh timer/deadline sample. All other mip
	// mutations happen at instruction boundaries the block builder
	// already treats as block-terminating (CSR writes, traps) or are
	// deferred to quantum barriers by the parallel engine.
	asyncGen uint64

	// inst holds the slow path's decoded instruction: execute() hands it
	// to opTable handlers by pointer, which would move a local to the heap.
	inst isa.Inst

	// LR/SC reservation.
	resValid bool
	resAddr  uint64

	// WalkStats counts page-table walk activity (telemetry).
	WalkStats ptw.WalkStats

	// Tel, when non-nil, records a cycle-domain instant per architectural
	// trap. Nil costs one branch per trap.
	Tel *telemetry.Scope

	// Prof, when non-nil, is this hart's cycle-domain sampling profiler:
	// each engine loop compares h.Cycles against Prof.Next and samples
	// (next PC, privilege mode, engine tier) when due. Nil — profiling
	// off — costs one branch per dispatch.
	Prof *telemetry.HartProfiler

	// Flight, when non-nil, is this hart's always-on black-box ring.
	// Recording is rare (traps, world switches — never per instruction)
	// and touches no simulated state, so it cannot perturb bit-identity.
	Flight *telemetry.FlightRing

	// Parallel-engine hooks (internal/platform engine). When the quantum
	// barrier is active, Yield is non-nil and QuantumDeadline is the cycle
	// count at which this hart must rendezvous with its peers before
	// continuing. Both are owned by the engine: nil/0 when running under
	// the sequential scheduler, so every hook below degrades to a branch.
	//
	// Yield(idle) parks the calling goroutine at the quantum barrier.
	// idle reports that the hart cannot make progress on its own (WFI
	// with nothing armed); when every participating hart is idle the
	// engine declares global halt and Yield returns false, meaning "stop
	// running, nothing will ever wake you". A true return means cross-hart
	// events (IPIs, TLB shootdowns, PMP reprogramming) for the new quantum
	// have been delivered and execution may continue.
	QuantumDeadline uint64
	Yield           func(idle bool) bool

	// traps counts trap entries by [interrupt bit][cause code] (TrapCount,
	// TrapMix): an indexed increment per TakeTrap, where a map would hash
	// and assign.
	traps [2][trapCodes]uint64
}

// trapCodes bounds the cause codes traps counts; every code the hart
// raises (isa.Exc*, isa.Int*) is below it.
const trapCodes = 64

// New creates a hart wired to the given RAM and bus.
func New(id int, ram *mem.PhysMemory, bus Bus) *Hart {
	h := &Hart{
		ID:     id,
		Mode:   isa.ModeM,
		PMP:    pmp.New(),
		TLB:    tlb.NewDefault(),
		Mem:    ram,
		Bus:    bus,
		Cost:   DefaultCosts(),
		csr:    newCSRFile(uint64(id)),
		mmuGen: 1, // never 0: an empty micro-TLB entry must match no context
	}
	h.walker = ptw.Walker{Mem: ram, Stats: &h.WalkStats}
	h.fp = newFastPath(h)
	return h
}

// Advance charges n cycles to the hart (Go-implemented privileged software
// charging its modeled path lengths).
func (h *Hart) Advance(n uint64) { h.Cycles += n }

// SetReg writes a GPR; writes to x0 are discarded.
func (h *Hart) SetReg(r uint8, v uint64) {
	if r != 0 {
		h.X[r] = v
	}
}

// Reg reads a GPR.
func (h *Hart) Reg(r uint8) uint64 { return h.X[r] }

// batchDeadline merges the timer deadline with the quantum barrier
// deadline. The batch re-checks its deadline before every instruction, so
// stopping early at the quantum edge is semantically invisible: Run parks
// at the barrier and resumes. Adaptive quantum sizing (internal/platform)
// moves QuantumDeadline between epochs, so Run re-derives the merge for
// every batch.
func (h *Hart) batchDeadline(dl uint64, armed bool) (uint64, bool) {
	if h.Yield == nil {
		return dl, armed
	}
	if !armed || h.QuantumDeadline < dl {
		return h.QuantumDeadline, true
	}
	return dl, true
}

// CheckYield parks the hart at the quantum barrier when its cycle count
// has reached the current quantum deadline. It loops because a single
// timer jump (e.g. a WFI fast-forward across a scheduler quantum) can
// overshoot many engine quanta at once; the hart then pays one barrier
// per quantum it crossed, which is what keeps cross-hart event delivery
// deterministic. Returns false only on global halt (all harts idle).
func (h *Hart) CheckYield() bool {
	for h.Yield != nil && h.Cycles >= h.QuantumDeadline {
		if !h.Yield(false) {
			return false
		}
	}
	return true
}

// --- Interrupt injection -------------------------------------------------

// SetPending sets an interrupt-pending bit in mip (CLINT timer, software
// interrupts, external lines).
func (h *Hart) SetPending(intNum uint) {
	h.csr.setRaw(isa.CSRMip, h.csr.raw(isa.CSRMip)|1<<intNum)
}

// ClearPending clears an interrupt-pending bit in mip.
func (h *Hart) ClearPending(intNum uint) {
	h.csr.setRaw(isa.CSRMip, h.csr.raw(isa.CSRMip)&^(1<<intNum))
}

// PendingInterrupt evaluates the interrupt priority and delegation rules
// and returns the interrupt to take, if any.
func (h *Hart) PendingInterrupt() (cause uint64, ok bool) {
	mip := h.csr.raw(isa.CSRMip)
	mie := h.csr.raw(isa.CSRMie)

	// Fast out: every deliverable interrupt below is pending&enabled at
	// some level, i.e. a subset of (mip|hvip) & (mie|hie). This is the
	// per-instruction common case.
	if (mip|h.csr.raw(isa.CSRHvip))&(mie|h.csr.raw(isa.CSRHie)) == 0 {
		return 0, false
	}

	mideleg := h.csr.raw(isa.CSRMideleg)
	mstatus := h.csr.raw(isa.CSRMstatus)

	// Machine-level interrupts: not delegated, enabled in mie.
	mPending := mip & mie &^ mideleg
	if mPending != 0 && (h.Mode != isa.ModeM || mstatus&isa.MstatusMIE != 0) {
		return isa.CauseInterruptBit | uint64(highestIntBit(mPending)), true
	}

	// HS-level interrupts: delegated by mideleg, not further by hideleg.
	hideleg := h.csr.raw(isa.CSRHideleg)
	hsPending := mip & mie & mideleg &^ hideleg
	takeHS := h.Mode == isa.ModeU || h.Mode.Virtualized() ||
		(h.Mode == isa.ModeS && mstatus&isa.MstatusSIE != 0)
	if hsPending != 0 && takeHS {
		return isa.CauseInterruptBit | uint64(highestIntBit(hsPending)), true
	}

	// VS-level interrupts: hip bits delegated by hideleg, gated by hie and
	// the guest's vsstatus.SIE.
	hie := h.csr.raw(isa.CSRHie)
	vsPending := h.hip() & hie & hideleg & vsInterruptMask
	vsstatus := h.csr.raw(isa.CSRVsstatus)
	takeVS := h.Mode == isa.ModeVU ||
		(h.Mode == isa.ModeVS && vsstatus&isa.MstatusSIE != 0)
	if h.Mode == isa.ModeU || h.Mode == isa.ModeS || h.Mode == isa.ModeM {
		takeVS = false // VS interrupts are masked outside V=1
	}
	if vsPending != 0 && takeVS {
		return isa.CauseInterruptBit | uint64(highestIntBit(vsPending)), true
	}
	return 0, false
}

// highestIntBit returns the highest-priority pending interrupt number.
// RISC-V priority: MEI > MSI > MTI > SEI > SSI > STI > VSEI > VSSI > VSTI.
func highestIntBit(pending uint64) uint {
	order := []uint{isa.IntMExt, isa.IntMSoft, isa.IntMTimer,
		isa.IntSExt, isa.IntSSoft, isa.IntSTimer, isa.IntSGuestEx,
		isa.IntVSExt, isa.IntVSSoft, isa.IntVSTimer}
	for _, b := range order {
		if pending&(1<<b) != 0 {
			return b
		}
	}
	// Fall back to lowest set bit for non-standard lines.
	for b := uint(0); b < 64; b++ {
		if pending&(1<<b) != 0 {
			return b
		}
	}
	return 0
}

// --- Trap entry and return ----------------------------------------------

// trapInfo is the pre-entry description of an exception.
type trapInfo struct {
	cause uint64
	tval  uint64
	tval2 uint64
	tinst uint64
}

// TakeTrap performs the architectural trap-entry sequence for the given
// cause and returns the resulting Trap. Delegation is evaluated here:
// exceptions from below M consult medeleg; if the trap came from V=1 and
// medeleg delegates, hedeleg may push it down to VS-mode. Interrupt
// delegation was already decided by PendingInterrupt, which encodes the
// target in the cause bit level; for simplicity TakeTrap re-derives it.
func (h *Hart) TakeTrap(ti trapInfo) Trap {
	from := h.Mode
	target := h.trapTarget(ti.cause, from)
	h.Cycles += h.Cost.TrapEntry
	h.traps[ti.cause>>63][ti.cause&(trapCodes-1)]++
	if h.Tel != nil {
		h.Tel.Instant(h.ID, "hart", "trap", h.Cycles, telemetry.NoCVM,
			ti.cause, isa.CauseName(ti.cause))
	}
	h.Flight.Record(h.Cycles, telemetry.FlightTrap, telemetry.NoCVM,
		ti.cause, h.PC, isa.CauseName(ti.cause))

	t := Trap{Cause: ti.cause, Tval: ti.tval, Tval2: ti.tval2, Tinst: ti.tinst,
		Target: target, From: from, PC: h.PC}

	f := h.csr
	switch target {
	case isa.ModeM:
		mstatus := f.raw(isa.CSRMstatus)
		// Save interrupt enable and previous privilege.
		mstatus = mstatus&^isa.MstatusMPIE | (mstatus&isa.MstatusMIE)<<4
		mstatus &^= isa.MstatusMIE
		mstatus = mstatus&^isa.MstatusMPP | from.Base()<<isa.MstatusMPPShift
		if from.Virtualized() {
			mstatus |= isa.MstatusMPV
		} else {
			mstatus &^= isa.MstatusMPV
		}
		f.setRaw(isa.CSRMstatus, mstatus)
		f.setRaw(isa.CSRMepc, h.PC)
		f.setRaw(isa.CSRMcause, ti.cause)
		f.setRaw(isa.CSRMtval, ti.tval)
		f.setRaw(isa.CSRMtval2, ti.tval2)
		f.setRaw(isa.CSRMtinst, ti.tinst)
		h.Mode = isa.ModeM
		h.PC = f.raw(isa.CSRMtvec) &^ 3

	case isa.ModeS:
		mstatus := f.raw(isa.CSRMstatus)
		mstatus = mstatus&^isa.MstatusSPIE | (mstatus&isa.MstatusSIE)<<4
		mstatus &^= isa.MstatusSIE
		if from.Base() == 1 {
			mstatus |= isa.MstatusSPP
		} else {
			mstatus &^= isa.MstatusSPP
		}
		f.setRaw(isa.CSRMstatus, mstatus)
		hstatus := f.raw(isa.CSRHstatus)
		if from.Virtualized() {
			hstatus |= isa.HstatusSPV
			if from == isa.ModeVS {
				hstatus |= isa.HstatusSPVP
			} else {
				hstatus &^= isa.HstatusSPVP
			}
		} else {
			hstatus &^= isa.HstatusSPV
		}
		f.setRaw(isa.CSRHstatus, hstatus)
		f.setRaw(isa.CSRSepc, h.PC)
		f.setRaw(isa.CSRScause, ti.cause)
		f.setRaw(isa.CSRStval, ti.tval)
		f.setRaw(isa.CSRHtval, ti.tval2)
		f.setRaw(isa.CSRHtinst, ti.tinst)
		h.Mode = isa.ModeS
		h.PC = f.raw(isa.CSRStvec) &^ 3

	case isa.ModeVS:
		vsstatus := f.raw(isa.CSRVsstatus)
		vsstatus = vsstatus&^isa.MstatusSPIE | (vsstatus&isa.MstatusSIE)<<4
		vsstatus &^= isa.MstatusSIE
		if from == isa.ModeVS {
			vsstatus |= isa.MstatusSPP
		} else {
			vsstatus &^= isa.MstatusSPP
		}
		f.setRaw(isa.CSRVsstatus, vsstatus)
		f.setRaw(isa.CSRVsepc, h.PC)
		f.setRaw(isa.CSRVscause, translateCauseForVS(ti.cause))
		f.setRaw(isa.CSRVstval, ti.tval)
		h.Mode = isa.ModeVS
		h.PC = f.raw(isa.CSRVstvec) &^ 3
	}
	return t
}

// trapTarget applies the two-level delegation rules.
func (h *Hart) trapTarget(cause uint64, from isa.PrivMode) isa.PrivMode {
	if from == isa.ModeM {
		return isa.ModeM
	}
	f := h.csr
	if cause&isa.CauseInterruptBit != 0 {
		bit := cause &^ isa.CauseInterruptBit
		if f.raw(isa.CSRMideleg)&(1<<bit) == 0 {
			return isa.ModeM
		}
		if from.Virtualized() && f.raw(isa.CSRHideleg)&(1<<bit) != 0 {
			return isa.ModeVS
		}
		return isa.ModeS
	}
	if f.raw(isa.CSRMedeleg)&(1<<cause) == 0 {
		return isa.ModeM
	}
	if from.Virtualized() && f.raw(isa.CSRHedeleg)&(1<<cause) != 0 {
		return isa.ModeVS
	}
	return isa.ModeS
}

// translateCauseForVS converts causes to the guest's supervisor view:
// VS-level interrupts appear as S-level interrupts, and an ecall from VU
// appears as an ecall from U.
func translateCauseForVS(cause uint64) uint64 {
	if cause&isa.CauseInterruptBit != 0 {
		bit := cause &^ isa.CauseInterruptBit
		switch bit {
		case isa.IntVSSoft:
			bit = isa.IntSSoft
		case isa.IntVSTimer:
			bit = isa.IntSTimer
		case isa.IntVSExt:
			bit = isa.IntSExt
		}
		return isa.CauseInterruptBit | bit
	}
	return cause
}

// MRet executes the mret sequence on behalf of M-mode Go firmware.
func (h *Hart) MRet() {
	f := h.csr
	mstatus := f.raw(isa.CSRMstatus)
	mpp := (mstatus & isa.MstatusMPP) >> isa.MstatusMPPShift
	mpv := mstatus&isa.MstatusMPV != 0
	// Restore MIE from MPIE, set MPIE, clear MPP/MPV.
	mstatus = mstatus&^isa.MstatusMIE | (mstatus&isa.MstatusMPIE)>>4
	mstatus |= isa.MstatusMPIE
	mstatus &^= isa.MstatusMPP | isa.MstatusMPV
	f.setRaw(isa.CSRMstatus, mstatus)
	h.Mode = modeFrom(mpp, mpv)
	h.PC = f.raw(isa.CSRMepc)
	h.Cycles += h.Cost.TrapReturn
}

// SRet executes the sret sequence. In HS-mode it may return into V=1
// (hstatus.SPV); in VS-mode it uses the vsstatus stack.
func (h *Hart) SRet() {
	f := h.csr
	if h.Mode.Virtualized() {
		vsstatus := f.raw(isa.CSRVsstatus)
		spp := vsstatus & isa.MstatusSPP
		vsstatus = vsstatus&^isa.MstatusSIE | (vsstatus&isa.MstatusSPIE)>>4
		vsstatus |= isa.MstatusSPIE
		vsstatus &^= isa.MstatusSPP
		f.setRaw(isa.CSRVsstatus, vsstatus)
		if spp != 0 {
			h.Mode = isa.ModeVS
		} else {
			h.Mode = isa.ModeVU
		}
		h.PC = f.raw(isa.CSRVsepc)
	} else {
		mstatus := f.raw(isa.CSRMstatus)
		hstatus := f.raw(isa.CSRHstatus)
		spp := mstatus & isa.MstatusSPP
		spv := hstatus&isa.HstatusSPV != 0
		mstatus = mstatus&^isa.MstatusSIE | (mstatus&isa.MstatusSPIE)>>4
		mstatus |= isa.MstatusSPIE
		mstatus &^= isa.MstatusSPP
		f.setRaw(isa.CSRMstatus, mstatus)
		f.setRaw(isa.CSRHstatus, hstatus&^isa.HstatusSPV)
		h.Mode = modeFrom(spp>>8, spv)
		h.PC = f.raw(isa.CSRSepc)
	}
	h.Cycles += h.Cost.TrapReturn
}

func modeFrom(base uint64, virt bool) isa.PrivMode {
	switch {
	case base == 3:
		return isa.ModeM
	case base == 1 && virt:
		return isa.ModeVS
	case base == 1:
		return isa.ModeS
	case virt:
		return isa.ModeVU
	default:
		return isa.ModeU
	}
}

// String summarizes the hart for diagnostics.
func (h *Hart) String() string {
	return fmt.Sprintf("hart%d[%v pc=%#x cycles=%d]", h.ID, h.Mode, h.PC, h.Cycles)
}

// TrapStat is one (cause, count) entry of the hart's trap mix.
type TrapStat struct {
	Cause uint64
	Name  string
	Count uint64
}

// TrapCount returns how many traps with the given cause (interrupt bit
// included) the hart has taken.
func (h *Hart) TrapCount(cause uint64) uint64 {
	return h.traps[cause>>63][cause&(trapCodes-1)]
}

// TrapMix returns the nonzero trap counts sorted by cause number:
// exceptions by code, then interrupts by code.
func (h *Hart) TrapMix() []TrapStat {
	out := []TrapStat{}
	for bit, codes := range h.traps {
		for code, n := range codes {
			if n != 0 {
				cause := uint64(bit)<<63 | uint64(code)
				out = append(out, TrapStat{Cause: cause, Name: isa.CauseName(cause), Count: n})
			}
		}
	}
	return out
}
