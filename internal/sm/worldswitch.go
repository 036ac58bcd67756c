package sm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// cvmMedeleg is the CVM-mode exception delegation (§IV.A): traps the
// confidential VM can process itself go straight to VS-mode; everything
// else — guest-page faults, ecall-from-VS (SBI), illegal instructions —
// lands in the SM. A single privilege switch either way: the short path.
const cvmMedeleg = uint64(1)<<isa.ExcBreakpoint |
	uint64(1)<<isa.ExcEcallU |
	uint64(1)<<isa.ExcInstAddrMisaligned |
	uint64(1)<<isa.ExcLoadAddrMisaligned |
	uint64(1)<<isa.ExcStoreAddrMisaligned |
	uint64(1)<<isa.ExcInstPageFault |
	uint64(1)<<isa.ExcLoadPageFault |
	uint64(1)<<isa.ExcStorePageFault

// cvmMideleg delegates VS-level interrupt lines so SM-injected virtual
// interrupts vector directly into the guest.
const cvmMideleg = uint64(1)<<isa.IntVSSoft | uint64(1)<<isa.IntVSTimer |
	uint64(1)<<isa.IntVSExt

// hvRegs is the Normal-mode CSR context the SM must restore when the
// hypervisor gets the hart back, and hvCtx one saved copy of it, index
// for index. The world switch moves it in one pass each way
// (Hart.SaveCSRs, Hart.LoadCSRs): every value was produced by this hart's
// own CSR file, so it needs no WARL rule on the way back. The first
// hvChargedRegs are the HS/M registers the switch is charged for. The
// rest is the VS-level state on the hart when the hypervisor enters a
// CVM — the seven VS CSRs, hie (which holds the VS interrupt enables) and
// hvip — which the CVM's run replaces with its own GuestContext; putting
// it back at exit leaves no CVM value where the hypervisor can read it.
// It moves uncharged, as a GuestContext's hvip and vsie do, so
// world-switch costs are those of the registers the switch always moved.
var hvRegs = [...]uint16{isa.CSRMedeleg, isa.CSRMideleg, isa.CSRHedeleg,
	isa.CSRHideleg, isa.CSRHgatp, isa.CSRHstatus, isa.CSRStvec,
	isa.CSRSscratch, isa.CSRSatp, isa.CSRSepc, isa.CSRMie,
	isa.CSRVsstatus, isa.CSRVsepc, isa.CSRVscause, isa.CSRVstval,
	isa.CSRVstvec, isa.CSRVsscratch, isa.CSRVsatp, isa.CSRHie, isa.CSRHvip}

const hvChargedRegs = 11

var hvCSRs = hart.NewCSRList(hvRegs[:]...)

type hvCtx [len(hvRegs)]uint64

func (s *SM) saveHVCtx(h *hart.Hart) hvCtx {
	h.Advance(hvChargedRegs * h.Cost.RegCopy)
	var c hvCtx
	h.SaveCSRs(hvCSRs, c[:])
	return c
}

func (s *SM) restoreHVCtx(h *hart.Hart, c *hvCtx) {
	h.LoadCSRs(hvCSRs, c[:])
	h.Advance(hvChargedRegs * h.Cost.RegCopy)
}

// cvmEntryRegs are the CSRs enterCVM installs (§IV.A): CVM-mode trap
// delegation, the machine timer as the only M-level interrupt, and the
// stage-2 root. Their values are SM constants storeCSR stores unchanged
// (TestCVMEntryCSRsAreWARLFixedPoints), plus hgatp's Sv39 root.
var cvmEntryRegs = [...]uint16{isa.CSRMedeleg, isa.CSRHedeleg,
	isa.CSRMideleg, isa.CSRHideleg, isa.CSRMie, isa.CSRHgatp}

var cvmEntryCSRs = hart.NewCSRList(cvmEntryRegs[:]...)

// cvmEntryValues returns the values enterCVM installs for c, index for
// index with cvmEntryRegs.
func cvmEntryValues(c *CVM) [len(cvmEntryRegs)]uint64 {
	return [...]uint64{cvmMedeleg, cvmMedeleg, cvmMideleg, cvmMideleg,
		uint64(1) << isa.IntMTimer,
		uint64(isa.SatpModeSv39)<<isa.SatpModeShift |
			uint64(c.vmid)<<isa.HgatpVMIDShift | c.hgatpRoot>>isa.PageShift}
}

// setPoolPMP flips the secure-pool PMP entries between Normal-mode
// (no access) and CVM-mode (full access) views.
//
// The set of entries to flip is read from this hart's own PMP file, not
// from len(s.alloc.pool.regions): a peer's FnRegisterPool commits the region
// record to the shared pool immediately, but the carve-out reaches this
// hart's PMP only at its next quantum barrier (Machine.OnHart). Charging
// by the shared count would make world-switch cost depend on host-thread
// timing and break the parallel engine's determinism contract.
func (s *SM) setPoolPMP(h *hart.Hart, open bool) {
	prev := s.tel.AttrPush(h.ID, h.Cycles, telemetry.AttrPMP)
	perm := uint8(0)
	if open {
		perm = pmp.PermR | pmp.PermW | pmp.PermX
	}
	for i := pmpPoolFirst; i <= pmpPoolLast; i++ {
		if (h.PMP.Cfg(i)>>3)&3 == pmp.AOff {
			continue
		}
		h.PMP.SetCfg(i, perm|pmp.ANAPOT<<3)
		h.Advance(h.Cost.PMPWriteEntry)
	}
	s.tel.AttrPop(h.ID, h.Cycles, prev)
}

// RunVCPU is the FnRun implementation: the short-path world switch into
// CVM mode, the confidential run loop, and the switch back. It returns
// when the hypervisor's help is required or the guest stops.
func (s *SM) RunVCPU(h *hart.Hart, cvmID, vcpuID int) (ExitInfo, error) {
	// The entry and exit halves of the world switch mutate shared SM
	// state and so hold s.mu; the confidential run loop itself executes
	// guest instructions outside it, so harts run their CVMs
	// concurrently and serialise only on monitor services.
	s.mu.Lock()
	h.Advance(h.Cost.TrapEntry + h.Cost.SMDispatch)
	// The run enters the world-switch compartment through the audited
	// gate: a quarantined (hung) switch compartment refuses every run
	// with a typed error while lifecycle and teardown keep working.
	if gerr := s.gateEnter(h, CompHost, CompSwitch, "run", false); gerr != nil {
		s.mu.Unlock()
		return ExitInfo{}, wrapErr("run", cvmID, gerr)
	}
	c, err := s.cvm(cvmID)
	if err != nil {
		s.mu.Unlock()
		return ExitInfo{}, wrapErr("run", cvmID, err)
	}
	if c.state != stRunnable {
		s.mu.Unlock()
		return ExitInfo{}, wrapErr("run", cvmID, ErrBadState)
	}
	if vcpuID < 0 || vcpuID >= len(c.vcpus) {
		s.mu.Unlock()
		return ExitInfo{}, wrapErr("run", cvmID, ErrNotFound)
	}
	v := c.vcpus[vcpuID]
	if v.on != nil {
		// One vCPU runs on one hart at a time: a second run would share
		// its protected register state.
		s.mu.Unlock()
		return ExitInfo{}, wrapErr("run", cvmID, ErrBadState)
	}
	// Entry latency is measured from the hypervisor's ecall (§V.B), so
	// Check-after-Load state loading counts toward it.
	entryStart := h.Cycles - h.Cost.TrapEntry - h.Cost.SMDispatch
	s.tel.AttrSwitch(h.ID, entryStart, c.ID, telemetry.AttrSMEntry)

	// Check-after-Load: consume the hypervisor's answer to the previous
	// exit before touching any guest state. A validation failure is a
	// fatal per-CVM fault: the CVM is quarantined (diagnostic state
	// preserved, frames scrubbed) and every other CVM keeps running.
	if v.pending.valid {
		if err := s.resumeFromExit(h, c, v); err != nil {
			s.Stats.TamperDetected++
			s.tel.Counter("sm/tamper_detected").Inc()
			err = wrapErr("run", c.ID, err)
			s.quarantine(h, c, err, s.originHere(h, CompSwitch))
			s.tel.AttrSwitch(h.ID, h.Cycles, telemetry.NoCVM, telemetry.AttrHost)
			s.mu.Unlock()
			return ExitInfo{Reason: ExitError}, err
		}
	}

	ctx := s.saveHVCtx(h)
	s.enterCVM(h, c, v)
	s.Stats.Entry.Observe(h.Cycles - entryStart)
	h.Flight.Span(telemetry.EvWorldEnter, entryStart, h.Cycles, c.ID, uint64(vcpuID), "")
	s.tel.AttrSwitch(h.ID, h.Cycles, c.ID, telemetry.AttrGuest)
	v.on, h.CVM = h, c.ID
	s.mu.Unlock()
	info, exitStart := s.runLoop(h, c, v) // returns with s.mu held
	v.on, h.CVM = nil, telemetry.NoCVM
	s.tel.AttrSwitch(h.ID, exitStart, c.ID, telemetry.AttrSMExit)
	s.exitCVM(h, c, v, &ctx, info)
	h.Advance(h.Cost.TrapReturn)
	s.Stats.Exit.Observe(h.Cycles - exitStart)
	h.Flight.Span(telemetry.EvWorldExit, exitStart, h.Cycles, c.ID, uint64(info.Reason),
		info.Reason.String())
	s.tel.AttrSwitch(h.ID, h.Cycles, telemetry.NoCVM, telemetry.AttrHost)
	// A fatal fault detected inside the run (internal memory escape,
	// page-table corruption, shared-page publish failure) quarantines the
	// CVM now that the Normal-mode context is restored. The post-mortem
	// carries the origin recorded at the fault site: under the parallel
	// engine this hart may only be the observer — a sibling vCPU's world
	// switch on another hart may have recorded the fault.
	if c.fatal != nil {
		err := wrapErr("run", c.ID, c.fatal.err)
		origin := c.fatal.origin
		c.fatal = nil
		s.quarantine(h, c, err, origin)
		s.mu.Unlock()
		return ExitInfo{Reason: ExitError}, err
	}
	s.mu.Unlock()
	return info, nil
}

// enterCVM performs the CVM-mode entry half of the world switch.
func (s *SM) enterCVM(h *hart.Hart, c *CVM, v *VCPU) {
	s.Stats.Entries++
	h.Advance(h.Cost.CVMEntryPad)
	if s.cfg.LongPath {
		// Conventional architectures hop through a secure hypervisor on
		// the way in: SM -> TSM (extra trap legs, TSM dispatch and state
		// handling) -> guest.
		h.Advance(h.Cost.SecHVHopEntry)
	}

	// Trap delegation control (§IV.A), then the stage-2 root and VMID:
	// one CSR access each.
	vals := cvmEntryValues(c)
	h.LoadCSRs(cvmEntryCSRs, vals[:])
	h.Advance(uint64(len(vals)) * h.Cost.CSRAccess)

	// Open the secure pool for this hart.
	s.setPoolPMP(h, true)

	// Optional split-page-table revalidation (§IV.E hardening).
	if s.cfg.ValidateSharedOnEntry && c.sharedSubtable != 0 {
		n, err := s.validateTableLevel(c.sharedSubtable, 1)
		h.Advance(n * h.Cost.RegCheck)
		if err != nil {
			// A hostile remap after splice: unsplice and continue without
			// the shared window rather than running exposed.
			_ = c.pt.SpliceRootEntry(c.hgatpRoot, SharedSlot, 0, true)
			_ = s.ram.WriteUint64(c.hgatpRoot+SharedSlot*8, 0)
			c.sharedSubtable = 0
		}
		s.Stats.SharedChecks++
	}

	// Restore the protected register file.
	v.sec.Load(h)

	// This run's quantum starts now; the timer arms for the earlier of
	// its end and the guest's own deadline.
	v.sec.StartQuantum(h, s.machine.CLINT, s.cfg.SchedQuantum, h.Cost.Mem)

	// Stage-2 mappings changed ownership views; flush and return to guest.
	prev := s.tel.AttrPush(h.ID, h.Cycles, telemetry.AttrTLB)
	h.TLB.FlushAll()
	h.Advance(h.Cost.TLBFlushAll)
	s.tel.AttrPop(h.ID, h.Cycles, prev)

	v.sec.Resume(h)
}

// exitCVM performs the Normal-mode half of the world switch.
func (s *SM) exitCVM(h *hart.Hart, c *CVM, v *VCPU, ctx *hvCtx, info ExitInfo) {
	s.Stats.Exits++
	h.Advance(h.Cost.CVMExitPad)
	if s.cfg.LongPath {
		h.Advance(h.Cost.SecHVHopExit)
	}
	// The resume PC is not the hart's (at exit it points into the SM's
	// trap vector): each exit path recorded v.sec.PC already.
	v.sec.Save(h)
	// The guest's interrupted privilege level: still current if the hart
	// is in a virtualized mode (wfi yield); otherwise the trap to M
	// recorded it in mstatus.MPV/MPP.
	switch {
	case h.Mode.Virtualized():
		v.sec.Mode = h.Mode
	case h.CSR(isa.CSRMstatus)&isa.MstatusMPV != 0:
		if (h.CSR(isa.CSRMstatus)&isa.MstatusMPP)>>isa.MstatusMPPShift == 1 {
			v.sec.Mode = isa.ModeVS
		} else {
			v.sec.Mode = isa.ModeVU
		}
	}
	s.publishExit(h, c, v, info)
	s.setPoolPMP(h, false)
	s.restoreHVCtx(h, ctx)
	prev := s.tel.AttrPush(h.ID, h.Cycles, telemetry.AttrTLB)
	h.TLB.FlushVMID(c.vmid)
	h.Advance(h.Cost.TLBFlushAll)
	s.tel.AttrPop(h.ID, h.Cycles, prev)
	h.Mode = isa.ModeS
	h.PC = h.CSR(isa.CSRSepc) // restored above
}

// publishExit writes the exit parameters the hypervisor needs into the
// shared vCPU (§IV.B): with the shared-vCPU mechanism only the
// trap-related registers cross the boundary; the no-shared baseline
// marshals the full register file through SM services instead. The seven
// fields are encoded into one line and stored with one write, bypassing
// PMP (the SM runs in M-mode; the shared page is in normal memory).
func (s *SM) publishExit(h *hart.Hart, c *CVM, v *VCPU, info ExitInfo) {
	if v.sharedPA == 0 {
		return
	}
	v.seq++
	var line [shvSize]byte
	le := binary.LittleEndian
	le.PutUint64(line[shvExitReason:], uint64(info.Reason))
	le.PutUint64(line[shvHtval:], info.GPA>>2)
	le.PutUint64(line[shvHtinst:], h.CSR(isa.CSRMtinst))
	le.PutUint64(line[shvTargetReg:], uint64(info.Target))
	le.PutUint64(line[shvData:], info.Data)
	le.PutUint64(line[shvWidth:], uint64(info.Width))
	le.PutUint64(line[shvSeq:], v.seq)
	if err := s.ram.Write(v.sharedPA, line[:]); err != nil {
		// The shared page escaped RAM: the binding itself is corrupt and
		// the exit cannot be published, so the round-trip contract is
		// unfulfillable. Mark the CVM fatal; RunVCPU quarantines it once
		// the world switch completes.
		c.fatal = &fatalFault{err: smErr(CodeMemory, SevFatalCVM, 0, "shared-vcpu-write",
			fmt.Errorf("shared vCPU write escaped RAM: %w", err)), origin: s.originHere(h, CompSwitch)}
		v.pending = pendingExit{}
		return
	}
	h.Advance(7 * h.Cost.RegCopy)
	if s.cfg.DisableSharedVCPU {
		// Baseline: the SM marshals the full register file out through
		// validated copy services instead of the trap-related subset.
		h.Advance(33 * (h.Cost.RegCopy + h.Cost.RegCheck))
	}
}

// resumeFromExit validates the hypervisor's answer (Check-after-Load) and
// applies it to the secure vCPU.
func (s *SM) resumeFromExit(h *hart.Hart, c *CVM, v *VCPU) error {
	p := v.pending
	v.pending = pendingExit{}
	if v.sharedPA == 0 {
		return nil
	}
	// Check-after-Load: load the hypervisor-writable line first, as one
	// snapshot, then validate every field, at full width, against the
	// words publishExit wrote — the hypervisor owns all 64 bits, so
	// nothing is truncated. A read that escapes RAM means the shared-page
	// binding is corrupt: fatal for this CVM, never a process panic.
	var line [shvSize]byte
	if err := s.ram.ReadInto(v.sharedPA, line[:]); err != nil {
		return smErr(CodeMemory, SevFatalCVM, 0, "shared-vcpu-read",
			fmt.Errorf("shared vCPU read escaped RAM: %w", err))
	}
	le := binary.LittleEndian
	seq, reason := le.Uint64(line[shvSeq:]), le.Uint64(line[shvExitReason:])
	target, width := le.Uint64(line[shvTargetReg:]), le.Uint64(line[shvWidth:])
	data := le.Uint64(line[shvData:])

	// Cost model: load each hypervisor-written field, validate it, and
	// apply the sanctioned values to the secure state. The shared-vCPU
	// design touches only the trap-related registers; the baseline round
	// trips the whole register file.
	fields := uint64(5)
	if s.cfg.DisableSharedVCPU {
		fields = 38
	}
	h.Advance(fields * (2*h.Cost.RegCopy + h.Cost.RegCheck))

	if seq != p.seq || reason != p.reason || target != p.target || width != p.width {
		return fmt.Errorf("%w: seq=%d/%d reason=%v/%v target=%d/%d width=%d/%d",
			ErrTampered, seq, p.seq, ExitReason(reason), ExitReason(p.reason),
			target, p.target, width, p.width)
	}
	if ExitReason(p.reason) == ExitMMIORead {
		v.sec.X[p.target] = isa.ExtendLoad(p.op, data)
	}
	return nil
}

// runLoop steps the guest until an exit condition. Traps targeting M are
// handled here (the SM *is* the M-mode software); traps delegated to VS
// vector into the guest architecturally and interpretation continues.
// The second return value is the cycle count at which the terminating
// event began (for §V.B exit-latency accounting).
//
// runLoop is entered without s.mu and returns with it held on every path,
// so a run that a monitor service ends goes straight from that service
// into RunVCPU's exit half in one lock section.
func (s *SM) runLoop(h *hart.Hart, c *CVM, v *VCPU) (ExitInfo, uint64) {
	for {
		budget := ^uint64(0)
		if s.cfg.StepHook != nil {
			// One instruction per Run, so the hook precedes every one.
			s.cfg.StepHook(h, v.ID)
			budget = 1
		}
		_, ev := h.Run(s.machine.CLINT, budget)
		switch ev.Kind {
		case hart.EvNone:
			continue
		case hart.EvHalt:
			// A running CVM is never idle, so global halt is impossible
			// here; exit defensively if it ever happens.
			v.sec.PC = h.PC
			s.mu.Lock()
			return ExitInfo{Reason: ExitTimer}, h.Cycles
		case hart.EvWFI:
			if h.IdleUntilTimer(s.machine.CLINT) {
				continue
			}
			// Idle with nothing armed: yield to the hypervisor. The hart
			// already advanced past the wfi, so its PC is authoritative.
			v.sec.PC = h.PC
			s.mu.Lock()
			return ExitInfo{Reason: ExitTimer}, h.Cycles
		case hart.EvTrap:
			t := ev.Trap
			trapStart := h.Cycles - h.Cost.TrapEntry
			switch t.Target {
			case isa.ModeVS:
				continue // architecturally delegated; guest handles it
			case isa.ModeM:
				s.tel.AttrSwitch(h.ID, trapStart, c.ID, attrBucketForCause(t.Cause))
				// Trap servicing touches shared SM state (allocator,
				// page tables, stats): serialise with the other harts'
				// monitor entries.
				s.mu.Lock()
				info, done := s.handleCVMTrap(h, c, v, t)
				if done {
					if info.Reason == ExitPoolEmpty {
						// The stage-3 fault handling that ran in the SM
						// belongs to the page-fault accounting (§V.C),
						// not to the world-switch exit latency (§V.B).
						trapStart = h.Cycles
					}
					return info, trapStart
				}
				s.mu.Unlock()
				// The trap was serviced in place (MRet): the guest runs again.
				s.tel.AttrSwitch(h.ID, h.Cycles, c.ID, telemetry.AttrGuest)
			default:
				// Nothing may reach HS while in CVM mode.
				v.sec.PC = t.PC
				s.mu.Lock()
				return ExitInfo{Reason: ExitError}, trapStart
			}
		}
	}
}

// attrBucketForCause maps an M-mode trap cause taken during confidential
// execution to its attribution bucket.
func attrBucketForCause(cause uint64) telemetry.AttrBucket {
	switch {
	case cause == isa.ExcEcallVS:
		return telemetry.AttrSBI
	case cause == isa.ExcLoadGuestPageFault ||
		cause == isa.ExcStoreGuestPageFault ||
		cause == isa.ExcInstGuestPageFault:
		return telemetry.AttrS2Fault
	}
	return telemetry.AttrSMOther // timer, spurious interrupts, fatal traps
}

// handleCVMTrap services an M-mode trap raised during confidential
// execution. done=true means the run ends with the returned ExitInfo.
func (s *SM) handleCVMTrap(h *hart.Hart, c *CVM, v *VCPU, t hart.Trap) (ExitInfo, bool) {
	h.Advance(h.Cost.SMDispatch)
	switch {
	case t.Cause == isa.CauseInterruptBit|isa.IntMTimer:
		if v.sec.TimerTrap(h, s.machine.CLINT, h.Cost.Mem, h.Cost.CSRAccess) {
			return ExitInfo{}, false // the guest's deadline: injected
		}
		// Scheduler quantum: leave mepc pointing at the interrupted
		// instruction; the guest resumes exactly there next run.
		v.sec.PC = h.CSR(isa.CSRMepc)
		return ExitInfo{Reason: ExitTimer}, true

	case t.Cause&isa.CauseInterruptBit != 0:
		// Unexpected machine-level interrupt (spurious software interrupt,
		// a storming line): tolerate it rather than kill the guest. Clear
		// the pending bit, mask the line for the rest of this run, and
		// resume — a trap storm costs cycles, never correctness.
		line := uint(t.Cause &^ isa.CauseInterruptBit)
		h.ClearPending(line)
		h.SetCSR(isa.CSRMie, h.CSR(isa.CSRMie)&^(uint64(1)<<line))
		h.Advance(2 * h.Cost.CSRAccess)
		s.Stats.SpuriousTraps++
		h.MRet()
		return ExitInfo{}, false

	case t.Cause == isa.ExcEcallVS:
		return s.handleGuestSBI(h, c, v)

	case t.Cause == isa.ExcLoadGuestPageFault ||
		t.Cause == isa.ExcStoreGuestPageFault ||
		t.Cause == isa.ExcInstGuestPageFault:
		return s.handleGuestPageFault(h, c, v, t)
	}
	// Anything else in M-mode during a confidential run is fatal for the
	// guest (undelegated exceptions indicate a guest or protocol bug).
	v.sec.PC = h.CSR(isa.CSRMepc)
	return ExitInfo{Reason: ExitError}, true
}

// handleGuestPageFault implements §IV.C/§IV.D: private-window faults are
// satisfied from the hierarchical secure allocator without leaving the
// SM; MMIO-window faults exit to the hypervisor; shared-window faults
// exit so the hypervisor can update its own subtable (§IV.E).
func (s *SM) handleGuestPageFault(h *hart.Hart, c *CVM, v *VCPU, t hart.Trap) (ExitInfo, bool) {
	gpa := t.Tval2 << 2
	switch {
	case gpa >= PrivateBase:
		return s.demandPage(h, c, v, gpa)
	case gpa >= SharedBase:
		// Hypervisor-managed window (§IV.E): the hypervisor updates its
		// own subtable (no SM synchronization) and the guest *retries*
		// the access, so no Check-after-Load contract is recorded.
		v.sec.PC = h.CSR(isa.CSRMepc)
		return ExitInfo{Reason: ExitSharedFault, GPA: gpa}, true
	default:
		reason := ExitMMIORead
		if t.Cause == isa.ExcStoreGuestPageFault {
			reason = ExitMMIOWrite
		}
		info := s.mmioExit(h, c, v, t, reason)
		return info, true
	}
}

// demandPage allocates and maps one private page (Figure 2's three-stage
// flow); stage 3 exits to the hypervisor for pool expansion.
func (s *SM) demandPage(h *hart.Hart, c *CVM, v *VCPU, gpa uint64) (ExitInfo, bool) {
	faultStart := h.Cycles - h.Cost.TrapEntry - h.Cost.SMDispatch
	h.Advance(h.Cost.SMFaultBase)
	pageGPA := gpa &^ uint64(isa.PageSize-1)
	// The demand-page allocation crosses into the allocator compartment.
	// A quarantined allocator cannot grow any CVM: this CVM's working set
	// can no longer be served, so it is quarantined (fatal per-CVM, typed)
	// while CVMs that never demand-page keep running untouched.
	var pa uint64
	var clean bool
	var stage AllocStage
	err := s.gate(h, CompSwitch, CompAlloc, "demand-page", func() error {
		var aerr error
		pa, clean, stage, aerr = s.alloc.pool.allocPage(&v.memCache)
		return aerr
	})
	if errors.Is(err, ErrCompartment) {
		return s.failDemandPage(h, c, v, CodeCompartment, CompAlloc,
			fmt.Errorf("%w: allocator compartment lost mid-run", ErrCompartment))
	}
	if err != nil {
		// Stage 3: ask the hypervisor for more secure memory, then the
		// guest retries the faulting access. The full stage-3 fault cost
		// (exit, hypervisor assist, re-entry) is accounted by the caller
		// via RecordStage3, since it spans the world switch.
		s.Stats.FaultStage[StageExpand]++
		s.Stats.ExpansionRounds++
		h.Advance(h.Cost.SMExpandPool)
		s.Stats.FaultCycles[StageExpand] += h.Cycles - faultStart
		h.Flight.Span(telemetry.EvS2FaultExpand, faultStart, h.Cycles, c.ID, uint64(StageExpand), "")
		s.tel.Counter("sm/s2faults").Inc()
		v.sec.PC = h.CSR(isa.CSRMepc)
		return ExitInfo{Reason: ExitPoolEmpty, GPA: pageGPA}, true
	}
	s.Stats.FaultStage[stage]++
	switch stage {
	case StageCache:
		h.Advance(h.Cost.SMAllocCache)
	case StageBlock:
		h.Advance(h.Cost.SMAllocBlock)
	}
	// Fresh confidential memory must never leak prior contents. A scrub or
	// map failure here means the SM's own view of secure memory is corrupt
	// (bit-flipped page table, frame outside RAM): fatal for this CVM,
	// quarantined by RunVCPU after the world switch unwinds.
	if err := s.installPage(c, pageGPA, pa, clean, nil); err != nil {
		var fe fillError
		if errors.As(err, &fe) {
			return s.failDemandPage(h, c, v, CodeMemory, CompAlloc,
				fmt.Errorf("secure page scrub escaped RAM: %w", fe.error))
		}
		return s.failDemandPage(h, c, v, CodeInternal, CompSwitch,
			fmt.Errorf("stage-2 map failed: %w", err))
	}
	// Retry the faulting instruction (MRet charges the trap return).
	h.MRet()
	s.Stats.FaultCycles[stage] += h.Cycles - faultStart
	h.Flight.Span(telemetry.EvS2Fault, faultStart, h.Cycles, c.ID, uint64(stage), "")
	s.tel.Counter("sm/s2faults").Inc()
	return ExitInfo{}, false
}

// failDemandPage records a fatal demand-fault failure, with the monitor
// compartment it originated in, and ends the run at the faulting
// instruction; RunVCPU quarantines the CVM once the world switch unwinds.
func (s *SM) failDemandPage(h *hart.Hart, c *CVM, v *VCPU, code ErrCode, comp Compartment,
	err error) (ExitInfo, bool) {
	c.fatal = &fatalFault{err: smErr(code, SevFatalCVM, c.ID, "demand-page", err),
		origin: s.originHere(h, comp)}
	v.sec.PC = h.CSR(isa.CSRMepc)
	return ExitInfo{Reason: ExitError}, true
}

// mmioExit prepares an exit that needs hypervisor emulation: decode the
// trapped access from htinst/mtinst, expose only the trap-related state
// through the shared vCPU, and record the Check-after-Load contract.
func (s *SM) mmioExit(h *hart.Hart, c *CVM, v *VCPU, t hart.Trap, reason ExitReason) ExitInfo {
	h.Advance(h.Cost.MMIODecode)
	gpa := t.Tval2 << 2
	info := ExitInfo{Reason: reason, GPA: gpa}
	in, ok := isa.DecodeTransformed(t.Tinst)
	if ok {
		info.Width = in.MemBytes()
		if in.IsStore() {
			info.Write = true
			info.Data = h.Reg(in.Rs2)
		} else {
			info.Target = in.Rd
		}
	}
	// The recorded words are exactly what publishExit writes. An
	// undecodable htinst leaves op OpInvalid: the data passes unchanged.
	v.pending = pendingExit{
		valid:  true,
		seq:    v.seq + 1, // publishExit increments before writing
		reason: uint64(reason),
		target: uint64(info.Target),
		width:  uint64(info.Width),
		op:     in.Op,
	}
	// The emulated access completes; the guest resumes *after* it.
	v.sec.PC = h.CSR(isa.CSRMepc) + 4
	return info
}

// handleGuestSBI services ecall-from-VS: the guest-facing ABI.
func (s *SM) handleGuestSBI(h *hart.Hart, c *CVM, v *VCPU) (ExitInfo, bool) {
	eid := h.Reg(17) // a7
	fid := h.Reg(16) // a6
	a0, a1 := h.Reg(10), h.Reg(11)
	h.Flight.Record(h.Cycles, telemetry.EvSBI, c.ID, eid, 0, "")
	s.tel.Counter("sm/sbi_calls").Inc()

	resume := func(ret uint64, errv uint64) {
		h.SetReg(10, errv)
		h.SetReg(11, ret)
		h.SetCSR(isa.CSRMepc, h.CSR(isa.CSRMepc)+4)
		h.MRet()
	}

	switch eid {
	case EIDPutchar:
		s.machine.UART.Access(h.ID, 0, 1, true, a0)
		resume(0, 0)
		return ExitInfo{}, false
	case EIDTime:
		v.sec.SetTimer(h, s.machine.CLINT, a0, h.Cost.Mem)
		resume(0, 0)
		return ExitInfo{}, false
	case EIDReset:
		v.sec.PC = h.CSR(isa.CSRMepc) + 4
		// a0/a1 ride along: guests report self-measured results this way.
		return ExitInfo{Reason: ExitShutdown, Data: a0, Data2: a1}, true
	case EIDZion:
		// Random, Measure, and Attest cross into the attestation
		// compartment; when it is quarantined the guest gets an SBI error
		// and keeps running — attestation loss degrades the service, it
		// does not kill CVMs (§ degraded-mode matrix, docs/SECURITY.md).
		switch fid {
		case ZionFnRandom:
			var r uint64
			if err := s.gate(h, CompSwitch, CompAttest, "sbi-random", func() error {
				r = s.att.rng.next()
				return nil
			}); err != nil {
				resume(0, 1)
			} else {
				resume(r, 0)
			}
			return ExitInfo{}, false
		case ZionFnMeasure:
			if err := s.gate(h, CompSwitch, CompAttest, "sbi-measure", func() error {
				return s.copyToGuest(c, a0, c.measurer.value())
			}); err != nil {
				resume(0, 1)
			} else {
				h.Advance(uint64(len(c.measurer.value())/8) * h.Cost.RegCopy)
				resume(0, 0)
			}
			return ExitInfo{}, false
		case ZionFnAttest:
			var rep []byte
			if err := s.gate(h, CompSwitch, CompAttest, "sbi-attest", func() error {
				rep = s.attestationReport(c, a1)
				return s.copyToGuest(c, a0, rep)
			}); err != nil {
				resume(0, 1)
			} else {
				h.Advance(uint64(len(rep)/8) * h.Cost.RegCopy)
				resume(uint64(len(rep)), 0)
			}
			return ExitInfo{}, false
		case ZionFnShareHint:
			// Bookkeeping only: the guest announces its bounce-buffer
			// region; the SM records it for diagnostics.
			resume(0, 0)
			return ExitInfo{}, false
		case ZionFnRelinquish:
			// Give-backs shrink the attack surface and are always accepted:
			// the crossing into the allocator is forced (audited, never
			// denied) even when the allocator compartment is quarantined.
			if err := s.gateForce(h, CompSwitch, CompAlloc, "relinquish", func() error {
				return s.relinquishPage(h, c, a0)
			}); err != nil {
				resume(0, 1)
			} else {
				resume(0, 0)
			}
			return ExitInfo{}, false
		}
	}
	// Unknown SBI call: SBI_ERR_NOT_SUPPORTED (-2) per the SBI spec.
	resume(0, ^uint64(1))
	return ExitInfo{}, false
}

// copyToGuest writes data into the CVM's *private* memory at gpa after
// translating through the CVM's own stage-2 tree and verifying frame
// ownership — the hypervisor must never be able to alias this buffer.
// The whole range [gpa, gpa+len) must lie in the private window below
// the top of guest-physical space; anything else is rejected before any
// walk or allocation.
func (s *SM) copyToGuest(c *CVM, gpa uint64, data []byte) error {
	end := gpa + uint64(len(data))
	if gpa < PrivateBase || end < gpa || end > ptw.MaxVA(true) {
		return ErrBadArgs
	}
	w := &ptw.Walker{Mem: s.ram}
	off := uint64(0)
	for off < uint64(len(data)) {
		res, err := w.Walk(c.hgatpRoot, gpa+off, ptw.AccessWrite, ptw.Opts{Stage2: true})
		if err != nil {
			// The guest handed us a not-yet-touched buffer: demand-map it
			// exactly as a stage-2 fault would.
			pa, clean, _, aerr := s.alloc.pool.allocPage(&c.tableCache)
			if aerr != nil {
				return aerr
			}
			if ierr := s.installPage(c, (gpa+off)&^uint64(isa.PageSize-1), pa, clean, nil); ierr != nil {
				return ierr
			}
			res, err = w.Walk(c.hgatpRoot, gpa+off, ptw.AccessWrite, ptw.Opts{Stage2: true})
			if err != nil {
				return err
			}
		}
		if !c.owned.has(res.PA) {
			return ErrOwnership
		}
		n := isa.PageSize - (gpa+off)%isa.PageSize
		if n > uint64(len(data))-off {
			n = uint64(len(data)) - off
		}
		if err := s.ram.Write(res.PA, data[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}
