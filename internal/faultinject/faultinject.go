// Package faultinject is a deterministic fault-injection harness for the
// ZION stack. It drives seeded campaigns of hardware- and
// hypervisor-level faults — DRAM bit flips inside secure memory, PMP and
// IOPMP misconfiguration, spurious trap storms, rogue-source DMA, and
// hostile hypervisor call sequences — against a live Secure Monitor, and
// classifies how each fault is absorbed.
//
// The harness plays the role the paper's threat model assigns to the
// adversary: everything below the SM (buggy or malicious hypervisor,
// misbehaving devices) plus transient hardware faults. A correct SM
// survives every campaign with zero isolation breaches: faults are
// denied at a boundary, detected and contained to the targeted CVM
// (quarantine), or masked entirely — and co-resident CVMs finish their
// work with correct results.
//
// Every campaign is reproducible from its seed: fault classes, targets,
// and corruption values all derive from one math/rand stream, and every
// enumeration the injector draws targets from is sorted.
package faultinject

import (
	"fmt"
	"math/rand"

	"zion/internal/hart"
	"zion/internal/iopmp"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/pmp"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// Class is a category of injected fault.
type Class int

// The fault classes a campaign sweeps.
const (
	// ClassBitFlip flips one bit in a secure frame backing a victim CVM's
	// data pages (a DRAM fault inside confidential memory).
	ClassBitFlip Class = iota
	// ClassPMPMisconfig corrupts a PMP entry of the SM's plan (flipped
	// permissions, garbled address, disabled entry) and expects the
	// invariant auditor to detect it and RepairPMP to recover.
	ClassPMPMisconfig
	// ClassRogueDMA issues DMA accesses into the secure pool from device
	// source IDs that were never granted a window (or from granted
	// sources reaching outside their window); the IOPMP must deny them.
	ClassRogueDMA
	// ClassTrapStorm raises storms of spurious machine-level software
	// interrupts during confidential execution via the SM's StepHook
	// seam; the SM must tolerate them without harming the guest.
	ClassTrapStorm
	// ClassProtocolViolation replays hostile hypervisor call sequences:
	// double-destroy, run-before-finalize, load-after-finalize,
	// suspend-of-destroyed, resume-of-running, shared subtables naming
	// secure memory. Every call must be rejected with a typed error.
	ClassProtocolViolation
	// ClassSharedTamper corrupts the shared-vCPU page mid-MMIO-round-trip
	// (sequence number, exit reason, target register or width); the
	// Check-after-Load validation must detect it and quarantine the CVM.
	ClassSharedTamper

	// Compartment-compromise classes. These corrupt the monitor's OWN
	// state rather than a CVM's, so a single injection permanently
	// quarantines one SM compartment for the injector's lifetime. They
	// are excluded from Run's random sweep (numSweepClasses) and driven
	// by RunCompromise, which boots a fresh monitor per scenario.

	// ClassAllocCorrupt flips allocator free-list metadata (a block's free
	// counter or page bitmap); the next gate crossing into the allocator
	// compartment must fail its integrity self-check, quarantine the
	// compartment with a salvage record, and refuse new memory while
	// give-backs still drain.
	ClassAllocCorrupt
	// ClassAttestSmash flips a bit of the platform attestation key; the
	// next crossing into the attest compartment must fail the key-digest
	// self-check and quarantine it — creates and reports are refused with
	// a typed error while existing CVMs keep running and tearing down.
	ClassAttestSmash
	// ClassGateFuzz drives raw gate crossings with unvalidated (from, to)
	// pairs; every illegal crossing must be rejected with a typed
	// recoverable error and no compartment may be quarantined (negative
	// control for the gate's argument validation).
	ClassGateFuzz
	// ClassCompHang burns a compartment's gate-watchdog cycle budget in
	// its crossing prologue; the gate must declare the compartment hung
	// and quarantine it instead of wedging the platform.
	ClassCompHang

	numClasses

	// numSweepClasses bounds Run's random sweep to the per-CVM fault
	// classes; compartment-compromise classes are one-shot per monitor
	// and belong to RunCompromise.
	numSweepClasses = ClassAllocCorrupt
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBitFlip:
		return "bit-flip"
	case ClassPMPMisconfig:
		return "pmp-misconfig"
	case ClassRogueDMA:
		return "rogue-dma"
	case ClassTrapStorm:
		return "trap-storm"
	case ClassProtocolViolation:
		return "protocol-violation"
	case ClassSharedTamper:
		return "shared-tamper"
	case ClassAllocCorrupt:
		return "alloc-corrupt"
	case ClassAttestSmash:
		return "attest-smash"
	case ClassGateFuzz:
		return "gate-fuzz"
	case ClassCompHang:
		return "comp-hang"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Outcome classifies how the stack absorbed one injected fault.
type Outcome int

// Fault outcomes, from best to worst.
const (
	// OutcomeDenied: the fault was rejected at a boundary (typed SM error,
	// IOPMP denial) and changed no state.
	OutcomeDenied Outcome = iota
	// OutcomeMasked: the fault landed but had no observable effect; the
	// victim completed with correct results.
	OutcomeMasked
	// OutcomeDetected: the fault corrupted the victim but was contained —
	// wrong result, guest crash, or audit finding repaired — without
	// touching any other CVM or leaking a secure page.
	OutcomeDetected
	// OutcomeQuarantined: the SM detected the fault and quarantined the
	// victim CVM (scrubbed frames, preserved diagnosis record).
	OutcomeQuarantined
	// OutcomeMissed: a fault the stack should have detected went
	// unnoticed (e.g. the auditor overlooked PMP corruption). A correct
	// stack produces zero.
	OutcomeMissed
	// OutcomeBreach: the fault crossed an isolation boundary (rogue DMA
	// admitted, tampered resume accepted, hostile call succeeded). A
	// correct stack produces zero.
	OutcomeBreach

	numOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeDenied:
		return "denied"
	case OutcomeMasked:
		return "masked"
	case OutcomeDetected:
		return "detected"
	case OutcomeQuarantined:
		return "quarantined"
	case OutcomeMissed:
		return "missed"
	case OutcomeBreach:
		return "breach"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Campaign memory layout (256 MiB RAM at platform.RAMBase; mirrors the SM
// test fixture so the two stay comparable):
//
//	+0x0010_0000  staging buffer for CVM images
//	+0x0020_0000  shared-vCPU pages (bump-allocated, recycled)
//	+0x0060_0000  DMA buffer granted to the legitimate device source
//	+0x0800_0000  secure pool (16 MiB, NAPOT-aligned)
const (
	ramSize    = 256 << 20
	poolBase   = platform.RAMBase + 0x0800_0000
	poolSize   = 16 << 20
	stagingPA  = platform.RAMBase + 0x0010_0000
	sharedBase = platform.RAMBase + 0x0020_0000
	dmaBufPA   = platform.RAMBase + 0x0060_0000
	dmaBufLen  = 64 << 10

	// legitSID is the one device source the campaign enrolls with a DMA
	// window into dmaBufPA; rogue accesses come from it (outside its
	// window) and from never-enrolled IDs.
	legitSID = iopmp.SourceID(7)

	mmioProbeAddr = 0x1000_0000 // inside the CVM MMIO window
)

// Injector owns a machine + Secure Monitor under test and knows how to
// build sacrificial victim CVMs and inject each fault class.
type Injector struct {
	rng *rand.Rand
	m   *platform.Machine
	s   *sm.SM
	h   *hart.Hart

	// stormSteps > 0 makes the StepHook raise a spurious machine software
	// interrupt on each of the next stormSteps instruction steps.
	stormSteps int

	// hangTarget, when set, makes the GateHook burn the gate-watchdog
	// budget on the next crossing into that compartment (one-shot): the
	// compartment-hang fault.
	hangTarget *sm.Compartment

	// sharedOf maps a live CVM id to its shared-vCPU page; sharedFree
	// recycles pages of destroyed CVMs, sharedNext bump-allocates.
	sharedOf   map[int]uint64
	sharedFree []uint64
	sharedNext uint64
}

// NewInjector boots a single-hart machine, installs a Secure Monitor with
// lifecycle auditing and the storm hook enabled, and registers the
// secure pool.
func NewInjector(seed int64, quantum uint64) (*Injector, error) {
	in := &Injector{
		rng:        rand.New(rand.NewSource(seed)),
		sharedOf:   make(map[int]uint64),
		sharedNext: sharedBase,
	}
	in.m = platform.New(1, ramSize)
	s, err := sm.New(in.m, sm.Config{
		SchedQuantum:   quantum,
		AuditLifecycle: true,
		StepHook:       in.step,
		GateHook:       in.gateHook,
	})
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	in.s = s
	in.h = in.m.Harts[0]
	in.h.Mode = isa.ModeS
	if _, err := s.HVCall(in.h, sm.FnRegisterPool, poolBase, poolSize); err != nil {
		return nil, fmt.Errorf("faultinject: pool: %w", err)
	}
	if _, err := s.HVCall(in.h, sm.FnGrantDMA, uint64(legitSID), dmaBufPA, dmaBufLen); err != nil {
		return nil, fmt.Errorf("faultinject: dma grant: %w", err)
	}
	return in, nil
}

// step is the SM's StepHook: while a storm is armed it re-enables and
// re-raises the machine software interrupt line every instruction, so the
// SM's tolerate-and-mask response is exercised repeatedly.
func (in *Injector) step(h *hart.Hart, vcpu int) {
	if in.stormSteps <= 0 {
		return
	}
	in.stormSteps--
	h.SetCSR(isa.CSRMie, h.CSR(isa.CSRMie)|1<<isa.IntMSoft)
	h.SetPending(isa.IntMSoft)
}

// hangCycles is what the hang fault burns inside a gate prologue —
// comfortably past the default watchdog budget, so the gate must declare
// the compartment hung rather than wait it out.
const hangCycles = 2_500_000

// gateHook is the SM's GateHook: while a hang is armed for the crossed
// compartment it burns the watchdog budget in the crossing prologue
// (one-shot), modeling a compartment that wedges instead of faulting.
func (in *Injector) gateHook(to sm.Compartment, op string, h *hart.Hart) {
	if in.hangTarget == nil || *in.hangTarget != to {
		return
	}
	in.hangTarget = nil
	h.Advance(hangCycles)
}

// allocShared hands out a shared-vCPU page in normal memory.
func (in *Injector) allocShared() uint64 {
	if n := len(in.sharedFree); n > 0 {
		pa := in.sharedFree[n-1]
		in.sharedFree = in.sharedFree[:n-1]
		return pa
	}
	pa := in.sharedNext
	in.sharedNext += isa.PageSize
	return pa
}

// spawn stages code, builds a CVM at sm.PrivateBase, finalizes it, and
// attaches vCPU 0 with a fresh shared page.
func (in *Injector) spawn(code []byte) (int, error) {
	if err := in.m.RAM.Write(stagingPA, code); err != nil {
		return 0, err
	}
	id64, err := in.s.HVCall(in.h, sm.FnCreateCVM)
	if err != nil {
		return 0, err
	}
	id := int(id64)
	npages := (len(code) + isa.PageSize - 1) / isa.PageSize
	for i := 0; i < npages; i++ {
		off := uint64(i) * isa.PageSize
		if _, err := in.s.HVCall(in.h, sm.FnLoadPage, id64, sm.PrivateBase+off, stagingPA+off); err != nil {
			return 0, err
		}
	}
	if _, err := in.s.HVCall(in.h, sm.FnFinalize, id64, sm.PrivateBase); err != nil {
		return 0, err
	}
	shared := in.allocShared()
	if _, err := in.s.HVCall(in.h, sm.FnCreateVCPU, id64, shared); err != nil {
		return 0, err
	}
	in.sharedOf[id] = shared
	return id, nil
}

// destroy releases a CVM (live or quarantined) and recycles its shared
// page. Destroy of a quarantined id acknowledges the post-mortem record.
func (in *Injector) destroy(id int) error {
	if _, err := in.s.HVCall(in.h, sm.FnDestroy, uint64(id)); err != nil {
		return err
	}
	if pa, ok := in.sharedOf[id]; ok {
		delete(in.sharedOf, id)
		in.sharedFree = append(in.sharedFree, pa)
	}
	return nil
}

// Scheduling caps for drive: a healthy victim checksum finishes within a
// few quanta, so a corrupted one that is still spinning after victimCap
// preemptions is livelocked — containment is already proven and the
// victim is retired. Bystanders carry much larger workloads and get a
// correspondingly larger cap.
const (
	victimCap    = 48
	bystanderCap = 8192
)

// drive runs a CVM to completion like a benign hypervisor: resuming
// across quanta, answering MMIO reads with zero, and ignoring MMIO
// writes. It classifies the result against the expected shutdown value.
func (in *Injector) drive(id int, want uint64, maxRounds int) (Outcome, error) {
	for round := 0; round < maxRounds; round++ {
		info, err := in.s.RunVCPU(in.h, id, 0)
		if err != nil {
			if _, ok := in.s.Quarantined(id); ok {
				// Fault detected and the CVM quarantined: acknowledge the
				// record so its resources are fully released.
				if derr := in.destroy(id); derr != nil {
					return 0, derr
				}
				return OutcomeQuarantined, nil
			}
			// Typed rejection without quarantine: the run ended but the
			// CVM is intact. Contained — retire the victim.
			if derr := in.destroy(id); derr != nil {
				return 0, derr
			}
			return OutcomeDetected, nil
		}
		switch info.Reason {
		case sm.ExitShutdown:
			if derr := in.destroy(id); derr != nil {
				return 0, derr
			}
			if info.Data == want {
				return OutcomeMasked, nil
			}
			return OutcomeDetected, nil
		case sm.ExitTimer:
			continue
		case sm.ExitMMIORead:
			sh := in.sharedOf[id]
			if err := in.m.RAM.WriteUint64(sh+sm.ShvData, 0); err != nil {
				return 0, err
			}
			continue
		case sm.ExitMMIOWrite:
			continue
		default:
			// ExitError (guest crashed on corrupted code), shared faults
			// from garbage addresses, pool exhaustion: the guest is
			// broken but contained.
			if derr := in.destroy(id); derr != nil {
				return 0, derr
			}
			return OutcomeDetected, nil
		}
	}
	// Livelock: the corrupted guest never terminates, but the scheduler
	// quantum kept preempting it, so the platform was never hostage.
	if err := in.destroy(id); err != nil {
		return 0, err
	}
	return OutcomeDetected, nil
}

// Inject performs one fault of the given class and reports its outcome.
func (in *Injector) Inject(class Class) (Outcome, error) {
	// Black-box the injection before it fires, so a quarantine post-mortem
	// taken downstream shows the fault that caused it in its flight tail.
	in.m.Flight.Ring(in.h.ID).Record(in.h.Cycles, telemetry.EvFault,
		telemetry.NoCVM, uint64(class), 0, class.String())
	switch class {
	case ClassBitFlip:
		return in.injectBitFlip()
	case ClassPMPMisconfig:
		return in.injectPMPMisconfig()
	case ClassRogueDMA:
		return in.injectRogueDMA()
	case ClassTrapStorm:
		return in.injectTrapStorm()
	case ClassProtocolViolation:
		return in.injectProtocolViolation()
	case ClassSharedTamper:
		return in.injectSharedTamper()
	case ClassAllocCorrupt:
		return in.injectAllocCorrupt()
	case ClassAttestSmash:
		return in.injectAttestSmash()
	case ClassGateFuzz:
		return in.injectGateFuzz()
	case ClassCompHang:
		return in.injectCompHang()
	}
	return 0, fmt.Errorf("faultinject: unknown class %v", class)
}

// expectCompartmentDown asserts that compartment comp was quarantined
// with a post-mortem record and that err is the typed compartment
// refusal. It returns a non-nil diagnostic on any miss.
func (in *Injector) expectCompartmentDown(comp sm.Compartment, err error) error {
	if err == nil {
		return fmt.Errorf("faultinject: %v compromise went undetected (call succeeded)", comp)
	}
	if e, ok := sm.AsSMError(err); !ok || e.Code != sm.CodeCompartment {
		return fmt.Errorf("faultinject: untyped refusal after %v loss: %v", comp, err)
	}
	if !in.s.CompartmentDown(comp) {
		return fmt.Errorf("faultinject: %v refused calls but is not quarantined", comp)
	}
	if rec, ok := in.s.CompartmentRecordOf(comp); !ok || rec == nil || rec.Cause == nil {
		return fmt.Errorf("faultinject: %v quarantined without a post-mortem record", comp)
	}
	return nil
}

// injectAllocCorrupt spawns a register-only victim, flips allocator
// free-list metadata, and proves the blast radius: the next allocator
// crossing quarantines the compartment (with a salvage record), new
// creates are refused with a typed error, and the already-running victim
// finishes with the right checksum and tears down through the forced
// give-back path.
func (in *Injector) injectAllocCorrupt() (Outcome, error) {
	n := uint64(100 + in.rng.Intn(100))
	id, err := in.spawn(checksumProgram(n))
	if err != nil {
		return 0, err
	}
	if _, ok := in.s.CorruptAllocMeta(uint64(in.rng.Int63())); !ok {
		// No free block left to target: nothing was injected.
		if derr := in.destroy(id); derr != nil {
			return 0, derr
		}
		return OutcomeMasked, nil
	}
	_, cerr := in.s.HVCall(in.h, sm.FnCreateCVM)
	if err := in.expectCompartmentDown(sm.CompAlloc, cerr); err != nil {
		return OutcomeMissed, err
	}
	rec, _ := in.s.CompartmentRecordOf(sm.CompAlloc)
	if rec.Salvage == "" {
		return OutcomeMissed, fmt.Errorf("faultinject: allocator quarantined without salvaging its free list")
	}
	out, err := in.drive(id, n*(n+1)/2, victimCap)
	if err != nil {
		return 0, err
	}
	if out != OutcomeMasked {
		return OutcomeBreach, fmt.Errorf("faultinject: allocator loss perturbed a running CVM: %v", out)
	}
	return OutcomeQuarantined, nil
}

// injectAttestSmash flips a platform-key bit and proves the degraded-mode
// contract: the attest compartment quarantines on its next crossing,
// creates and out-of-band reports are refused with a typed error, and the
// already-running victim still finishes and tears down.
func (in *Injector) injectAttestSmash() (Outcome, error) {
	n := uint64(100 + in.rng.Intn(100))
	id, err := in.spawn(checksumProgram(n))
	if err != nil {
		return 0, err
	}
	in.s.CorruptAttestKey(uint(in.rng.Intn(1024)))
	_, berr := in.s.BuildReport(id, in.rng.Uint64())
	if err := in.expectCompartmentDown(sm.CompAttest, berr); err != nil {
		return OutcomeMissed, err
	}
	// Degraded mode: a CVM cannot be born without its measurement.
	if _, cerr := in.s.HVCall(in.h, sm.FnCreateCVM); cerr == nil {
		return OutcomeBreach, fmt.Errorf("faultinject: create accepted with attestation down")
	}
	out, err := in.drive(id, n*(n+1)/2, victimCap)
	if err != nil {
		return 0, err
	}
	if out != OutcomeMasked {
		return OutcomeBreach, fmt.Errorf("faultinject: attestation loss perturbed a running CVM: %v", out)
	}
	return OutcomeQuarantined, nil
}

// injectGateFuzz drives raw gate crossings with random (often illegal)
// compartment pairs. Every rejection must be typed and no compartment may
// be quarantined: argument fuzzing is the gate's negative control.
func (in *Injector) injectGateFuzz() (Outcome, error) {
	for i := 0; i < 16; i++ {
		from := int64(in.rng.Intn(12)) - 4 // well outside [-1, NumCompartments)
		to := int64(in.rng.Intn(12)) - 4
		err := in.s.GateProbe(in.h, from, to, "fuzz")
		if err == nil {
			continue // a legal crossing: validation happens behind the gate
		}
		if _, ok := sm.AsSMError(err); !ok {
			return OutcomeBreach, fmt.Errorf("faultinject: untyped gate rejection for (%d,%d): %v", from, to, err)
		}
	}
	for c := sm.Compartment(0); c < sm.NumCompartments; c++ {
		if in.s.CompartmentDown(c) {
			return OutcomeBreach, fmt.Errorf("faultinject: gate fuzz quarantined %v", c)
		}
	}
	return OutcomeDenied, nil
}

// injectCompHang wedges a compartment in its gate prologue (lifecycle or
// the world switch, the two compartments with distinct degraded modes)
// and proves the watchdog quarantines it instead of hanging the platform,
// while the other compartment's services keep working.
func (in *Injector) injectCompHang() (Outcome, error) {
	n := uint64(100 + in.rng.Intn(100))
	id, err := in.spawn(checksumProgram(n))
	if err != nil {
		return 0, err
	}
	if in.rng.Intn(2) == 0 {
		// Hang lifecycle: the next create wedges mid-gate and the watchdog
		// quarantines the compartment. Runs (world switch) and teardown
		// (forced) keep working.
		target := sm.CompLifecycle
		in.hangTarget = &target
		_, cerr := in.s.HVCall(in.h, sm.FnCreateCVM)
		if err := in.expectCompartmentDown(sm.CompLifecycle, cerr); err != nil {
			return OutcomeMissed, err
		}
		out, err := in.drive(id, n*(n+1)/2, victimCap)
		if err != nil {
			return 0, err
		}
		if out != OutcomeMasked {
			return OutcomeBreach, fmt.Errorf("faultinject: lifecycle hang perturbed a running CVM: %v", out)
		}
		return OutcomeQuarantined, nil
	}
	// Hang the world switch: the next run wedges mid-gate, the watchdog
	// quarantines the compartment, and every further run is refused with
	// a typed error — but lifecycle still works: the victim (which can no
	// longer execute) tears down cleanly.
	target := sm.CompSwitch
	in.hangTarget = &target
	_, rerr := in.s.RunVCPU(in.h, id, 0)
	if err := in.expectCompartmentDown(sm.CompSwitch, rerr); err != nil {
		return OutcomeMissed, err
	}
	if _, rerr := in.s.RunVCPU(in.h, id, 0); rerr == nil {
		return OutcomeBreach, fmt.Errorf("faultinject: run accepted with the world switch down")
	}
	if derr := in.destroy(id); derr != nil {
		return OutcomeBreach, fmt.Errorf("faultinject: teardown failed with the world switch down: %v", derr)
	}
	return OutcomeQuarantined, nil
}

// injectBitFlip spawns a checksum victim, flips one bit in one of its
// secure frames, and drives it to completion. The flip lands in the
// victim's code page, so outcomes range from masked (untouched tail of
// the page) through wrong results and crashes — all contained.
func (in *Injector) injectBitFlip() (Outcome, error) {
	n := uint64(200 + in.rng.Intn(100))
	id, err := in.spawn(checksumProgram(n))
	if err != nil {
		return 0, err
	}
	frames, err := in.s.MappedFrames(id)
	if err != nil {
		return 0, err
	}
	pa := frames[in.rng.Intn(len(frames))]
	// Bias half the flips into the first 128 bytes, where the victim's
	// code actually lives; the rest sample the whole page.
	var off uint64
	if in.rng.Intn(2) == 0 {
		off = uint64(in.rng.Intn(128))
	} else {
		off = uint64(in.rng.Intn(isa.PageSize))
	}
	if err := in.m.RAM.FlipBit(pa+off, uint(in.rng.Intn(8))); err != nil {
		return 0, err
	}
	return in.drive(id, n*(n+1)/2, victimCap)
}

// injectPMPMisconfig corrupts one entry of the SM's PMP plan and expects
// Audit to flag it and RepairPMP to restore it.
func (in *Injector) injectPMPMisconfig() (Outcome, error) {
	u := in.h.PMP
	switch in.rng.Intn(4) {
	case 0: // open the pool carve-out to S/U (confidentiality attack)
		u.SetCfg(sm.PMPPoolFirst, u.Cfg(sm.PMPPoolFirst)|pmp.PermR|pmp.PermW|pmp.PermX)
	case 1: // garble the pool region's address encoding
		u.SetAddr(sm.PMPPoolFirst, u.Addr(sm.PMPPoolFirst)^uint64(1+in.rng.Intn(1<<16)))
	case 2: // disable the pool carve-out entirely (mode = OFF)
		u.SetCfg(sm.PMPPoolFirst, 0)
	case 3: // disable the S/U RAM window
		u.SetCfg(sm.PMPRAMEntry, 0)
	}
	found := false
	for _, f := range in.s.Audit() {
		if f.Kind == sm.AuditPMPPlan {
			found = true
			break
		}
	}
	if !found {
		return OutcomeMissed, nil
	}
	in.s.RepairPMP()
	if residual := in.s.Audit(); len(residual) != 0 {
		return OutcomeMissed, fmt.Errorf("faultinject: repair left findings: %v", residual)
	}
	return OutcomeDetected, nil
}

// injectRogueDMA fires device accesses that must be denied: from source
// IDs never enrolled, and from the legitimate source reaching into the
// secure pool or past its granted window.
func (in *Injector) injectRogueDMA() (Outcome, error) {
	acc := pmp.AccessRead
	if in.rng.Intn(2) == 0 {
		acc = pmp.AccessWrite
	}
	var sid iopmp.SourceID
	var addr uint64
	switch in.rng.Intn(3) {
	case 0: // unenrolled source, anywhere
		sid = iopmp.SourceID(1000 + in.rng.Intn(64))
		addr = poolBase + uint64(in.rng.Intn(poolSize))
	case 1: // legitimate source aiming at the secure pool
		sid = legitSID
		addr = poolBase + uint64(in.rng.Intn(poolSize))
	case 2: // legitimate source just past its window
		sid = legitSID
		addr = dmaBufPA + dmaBufLen + uint64(in.rng.Intn(1<<16))
	}
	if err := in.m.IOPMP.Check(sid, addr&^7, 8, acc); err != nil {
		return OutcomeDenied, nil
	}
	return OutcomeBreach, fmt.Errorf("faultinject: IOPMP admitted sid=%d addr=%#x", sid, addr)
}

// injectTrapStorm arms the StepHook storm and drives a checksum victim
// through it. The SM must absorb every spurious interrupt; the victim
// must still produce the right answer.
func (in *Injector) injectTrapStorm() (Outcome, error) {
	n := uint64(150 + in.rng.Intn(100))
	id, err := in.spawn(checksumProgram(n))
	if err != nil {
		return 0, err
	}
	in.stormSteps = 50 + in.rng.Intn(200)
	out, err := in.drive(id, n*(n+1)/2, victimCap)
	in.stormSteps = 0
	if err != nil {
		return 0, err
	}
	if out != OutcomeMasked {
		// A storm of spurious interrupts must never alter guest results.
		return OutcomeBreach, fmt.Errorf("faultinject: trap storm perturbed victim: %v", out)
	}
	return OutcomeMasked, nil
}

// injectProtocolViolation replays one hostile hypervisor call sequence;
// the SM must reject it with a typed error and change no state.
func (in *Injector) injectProtocolViolation() (Outcome, error) {
	deny := func(_ uint64, err error) (Outcome, error) {
		if err == nil {
			return OutcomeBreach, fmt.Errorf("faultinject: hostile call accepted")
		}
		if _, ok := sm.AsSMError(err); !ok {
			return OutcomeBreach, fmt.Errorf("faultinject: untyped rejection: %w", err)
		}
		return OutcomeDenied, nil
	}
	switch in.rng.Intn(7) {
	case 0: // destroy of a never-created id
		return deny(in.s.HVCall(in.h, sm.FnDestroy, uint64(100000+in.rng.Intn(1000))))
	case 1: // double destroy
		id, err := in.spawn(checksumProgram(10))
		if err != nil {
			return 0, err
		}
		if err := in.destroy(id); err != nil {
			return 0, err
		}
		return deny(in.s.HVCall(in.h, sm.FnDestroy, uint64(id)))
	case 2: // vCPU creation before finalize
		id64, err := in.s.HVCall(in.h, sm.FnCreateCVM)
		if err != nil {
			return 0, err
		}
		out, derr := deny(in.s.HVCall(in.h, sm.FnCreateVCPU, id64, in.allocShared()))
		if err := in.destroy(int(id64)); err != nil {
			return 0, err
		}
		return out, derr
	case 3: // load after finalize
		id, err := in.spawn(checksumProgram(10))
		if err != nil {
			return 0, err
		}
		out, derr := deny(in.s.HVCall(in.h, sm.FnLoadPage, uint64(id), sm.PrivateBase+0x10000, stagingPA))
		if err := in.destroy(id); err != nil {
			return 0, err
		}
		return out, derr
	case 4: // suspend of a destroyed CVM
		id, err := in.spawn(checksumProgram(10))
		if err != nil {
			return 0, err
		}
		if err := in.destroy(id); err != nil {
			return 0, err
		}
		return deny(in.s.HVCall(in.h, sm.FnSuspend, uint64(id)))
	case 5: // resume of a CVM that was never suspended
		id, err := in.spawn(checksumProgram(10))
		if err != nil {
			return 0, err
		}
		out, derr := deny(in.s.HVCall(in.h, sm.FnResume, uint64(id)))
		if err := in.destroy(id); err != nil {
			return 0, err
		}
		return out, derr
	case 6: // shared subtable inside secure memory
		id, err := in.spawn(checksumProgram(10))
		if err != nil {
			return 0, err
		}
		evil := poolBase + uint64(in.rng.Intn(poolSize))&^uint64(isa.PageSize-1)
		out, derr := deny(in.s.HVCall(in.h, sm.FnRegisterShared, uint64(id), evil))
		if err := in.destroy(id); err != nil {
			return 0, err
		}
		return out, derr
	}
	return 0, fmt.Errorf("faultinject: unreachable")
}

// injectSharedTamper spawns an MMIO victim, waits for its MMIO-read exit,
// corrupts one hypervisor-checkable field of the shared vCPU, and
// resumes. Check-after-Load must reject the resume and quarantine.
func (in *Injector) injectSharedTamper() (Outcome, error) {
	id, err := in.spawn(mmioProgram())
	if err != nil {
		return 0, err
	}
	sh := in.sharedOf[id]
	for {
		info, rerr := in.s.RunVCPU(in.h, id, 0)
		if rerr != nil {
			return 0, fmt.Errorf("faultinject: victim died before MMIO: %w", rerr)
		}
		if info.Reason == sm.ExitTimer {
			continue
		}
		if info.Reason != sm.ExitMMIORead {
			return 0, fmt.Errorf("faultinject: unexpected pre-tamper exit %v", info.Reason)
		}
		break
	}
	// Corrupt one of the fields the SM revalidates on resume.
	offs := [...]uint64{sm.ShvSeq, sm.ShvExitReason, sm.ShvTargetReg, sm.ShvWidth}
	off := offs[in.rng.Intn(len(offs))]
	cur, err := in.m.RAM.ReadUint64(sh + off)
	if err != nil {
		return 0, err
	}
	if err := in.m.RAM.WriteUint64(sh+off, cur^uint64(1+in.rng.Intn(1<<16))); err != nil {
		return 0, err
	}
	_, rerr := in.s.RunVCPU(in.h, id, 0)
	if rerr == nil {
		return OutcomeBreach, fmt.Errorf("faultinject: tampered resume accepted")
	}
	if _, ok := in.s.Quarantined(id); !ok {
		return OutcomeBreach, fmt.Errorf("faultinject: tamper detected but CVM not quarantined: %v", rerr)
	}
	if err := in.destroy(id); err != nil {
		return 0, err
	}
	return OutcomeQuarantined, nil
}
