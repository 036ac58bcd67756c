// Package sm implements ZION's Secure Monitor — the paper's core
// contribution. The SM is the machine-mode trusted computing base: it
// owns the secure memory pool (PMP + paging isolation, §IV.C), the
// hierarchical secure allocator (§IV.D), confidential-VM lifecycle and the
// short-path world switch (§IV.A), secure/shared vCPU state management
// with Check-after-Load (§IV.B), split-page-table memory sharing (§IV.E),
// and measurement/attestation.
//
// The SM is invoked two ways, both charging the architectural trap costs:
// the hypervisor calls HVCall (the ecall-from-HS path), and guest traps
// that target M-mode during a confidential run are dispatched inside
// Run's stepping loop.
package sm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"zion/internal/hart"
	"zion/internal/iopmp"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/platform"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// FuncID selects an SM entry point in the hypervisor-facing ECALL ABI.
type FuncID uint64

// Hypervisor-facing functions (ecall from HS-mode).
const (
	FnRegisterPool FuncID = iota + 1
	FnCreateCVM
	FnLoadPage
	FnFinalize
	FnCreateVCPU
	FnRun
	FnDestroy
	FnRegisterShared
	FnRevokeShared
	FnGrantDMA
	FnSuspend
	FnResume
)

// Guest-facing SBI extension IDs (ecall from VS-mode inside a CVM).
const (
	// EIDZion is the ZION guest extension: attestation, entropy, sharing.
	EIDZion = 0x5A494F4E // "ZION"
	// Legacy console putchar (SBI v0.1), kept for guest prints.
	EIDPutchar = 0x01
	// EIDTime is the SBI TIME extension (set_timer).
	EIDTime = 0x54494D45
	// EIDReset is the SBI SRST extension (shutdown).
	EIDReset = 0x53525354
)

// ZION guest-extension function IDs.
const (
	ZionFnAttest    = 0 // a0 = report buffer GPA (private), a1 = nonce
	ZionFnRandom    = 1 // returns entropy in a0
	ZionFnMeasure   = 2 // a0 = buffer GPA; writes the 32-byte measurement
	ZionFnShareHint = 3 // guest declares [gpa, +len) will be used as shared
	// ZionFnRelinquish donates a private page back to the secure pool
	// (guest ballooning): a0 = page-aligned GPA.
	ZionFnRelinquish = 4
)

// Errors returned through the ABI.
var (
	ErrBadArgs     = errors.New("sm: bad arguments")
	ErrNotFound    = errors.New("sm: no such CVM or vCPU")
	ErrBadState    = errors.New("sm: operation invalid in current state")
	ErrNotSecure   = errors.New("sm: address not in secure memory")
	ErrNotNormal   = errors.New("sm: address not in normal memory")
	ErrOwnership   = errors.New("sm: frame owned by another CVM")
	ErrTampered    = errors.New("sm: shared vCPU failed Check-after-Load validation")
	ErrConcurrency = errors.New("sm: concurrent CVM limit reached")
	ErrQuarantined = errors.New("sm: CVM quarantined after a fatal fault")
	// ErrCompartment reports that the SM compartment owning the requested
	// service is quarantined; the call is refused, siblings keep serving.
	ErrCompartment = errors.New("sm: monitor compartment quarantined")
)

// cvmState tracks the lifecycle.
type cvmState int

const (
	stBuilding cvmState = iota
	stRunnable
	stSuspended
	stDead
	stQuarantined
)

// CVM is the SM-side record of one confidential VM.
type CVM struct {
	ID    int
	state cvmState

	hgatpRoot uint64
	vmid      uint16

	// tableCache feeds stage-2 page-table frames (secure memory); pt is
	// the CVM's one stage-2 builder, drawing its table frames from it.
	tableCache pageCache
	pt         ptw.Builder
	vcpus      []*VCPU

	// owned tracks the secure frames this CVM may map (inter-CVM
	// isolation, §IV.C: "memory allocated to the confidential VM is not
	// shared with other confidential VMs").
	owned frameSet
	// mappings records the private GPA -> PA leaves the SM installed
	// (image load + demand paging), for snapshot enumeration and audits.
	mappings gpaMap

	measurer *measurer
	entryPC  uint64

	// fatal records a fatal per-CVM fault detected mid-run (internal
	// memory escape, page-table corruption, compartment loss) together
	// with its origin (hart, epoch, compartment). RunVCPU quarantines the
	// CVM after the world-switch exit half completes — possibly on a
	// different hart than the one that recorded the fault.
	fatal *fatalFault

	// Split page table (§IV.E): the hypervisor-managed shared subtable
	// spliced into root slot sharedSlot.
	sharedSubtable uint64 // 0 = none
}

// GPA-space layout for confidential VMs.
const (
	// SharedSlot is the 1 GiB root slot whose subtree the hypervisor
	// manages (shared address space, §IV.E). GPA [1 GiB, 2 GiB).
	SharedSlot = 1
	// SharedBase is the first shared GPA.
	SharedBase = uint64(SharedSlot) << 30
	// PrivateBase is where private (secure) guest RAM begins: GPA 2 GiB,
	// mirroring the physical DRAM base.
	PrivateBase = uint64(0x8000_0000)
	// MMIOBase/MMIOSize: GPAs below 1 GiB are never mapped; guest accesses
	// there exit to the hypervisor for device emulation.
	MMIOBase = uint64(0)
	MMIOSize = uint64(1) << 30
)

// MaxCVMs bounds concurrent confidential VMs. Unlike region-based designs
// (CURE/VirTEE, ~13 enclaves), the bound is bookkeeping-only: page-granular
// isolation needs no per-CVM PMP entry.
const MaxCVMs = 4096

// Config tunes the Secure Monitor.
type Config struct {
	// ValidateSharedOnEntry re-checks the spliced shared subtable on every
	// CVM entry (defence against post-splice remapping by the hypervisor).
	// Costs a range check per shared leaf on the entry path.
	ValidateSharedOnEntry bool
	// SchedQuantum is the scheduler timeslice in cycles used when the
	// hypervisor arms preemption (0 = no preemption).
	SchedQuantum uint64
	// DisableSharedVCPU turns off the shared-vCPU fast path (§V.B.1
	// baseline): every hypervisor round trip marshals and validates the
	// full register file through SM services instead of the trap-related
	// subset.
	DisableSharedVCPU bool
	// LongPath inserts the secure-hypervisor hop of conventional CVM
	// architectures on both halves of the world switch (§V.B.2 baseline).
	LongPath bool
	// Telemetry attaches the SM to a shared cross-layer telemetry scope:
	// spans for world switches and HVCalls, per-CVM cycle attribution, and
	// registry metrics. Nil disables all of it at one nil-check per site.
	Telemetry *telemetry.Scope
	// AuditLifecycle runs the cross-layer invariant auditor after every
	// lifecycle HVCall (continuous verification; costs a full audit walk
	// per call, so campaigns and tests enable it, benchmarks do not).
	AuditLifecycle bool
	// StepHook, when set, is invoked before every instruction step of a
	// confidential run with the hart and the vCPU index. It is the
	// fault-injection seam for asynchronous events (spurious interrupts,
	// trap storms); production configs leave it nil.
	StepHook func(h *hart.Hart, vcpu int)
	// GateHook, when set, is invoked inside every audited compartment
	// gate crossing, under the gate watchdog. It is the fault-injection
	// seam for compartment-hang campaigns (a hook that burns more than
	// GateWatchdog cycles gets its compartment quarantined as hung);
	// production configs leave it nil.
	GateHook func(to Compartment, op string, h *hart.Hart)
	// GateWatchdog is the cycle budget a compartment may consume in its
	// gate prologue before the gate declares it hung (0 = default
	// 2,000,000 cycles). The budget covers only the crossing prologue,
	// never the service body, so long legitimate operations (destroy
	// scrub loops) cannot trip it.
	GateWatchdog uint64
}

// ExitInfo is returned to the hypervisor by FnRun.
type ExitInfo struct {
	Reason ExitReason
	// MMIO details (also published in the shared vCPU).
	GPA    uint64
	Write  bool
	Width  int
	Data   uint64 // store data for ExitMMIOWrite; guest a0 at shutdown
	Data2  uint64 // guest a1 at shutdown (secondary result channel)
	Target uint8  // destination register for ExitMMIORead
}

// SM is the Secure Monitor.
type SM struct {
	// mu serialises the SM's shared state across harts — the software
	// analogue of the spinlock a real monitor takes on its global tables.
	// Guest stepping (runLoop batches) runs outside it; only world-switch
	// halves, hvcalls, and trap servicing hold it, so harts execute guest
	// code concurrently and serialise on monitor services. Lock order:
	// s.mu before any engine post; barrier-applied cross-hart ops never
	// take s.mu.
	mu      sync.Mutex
	machine *platform.Machine
	ram     *mem.PhysMemory
	cfg     Config

	// State ownership is split across the privilege-separated
	// compartments (compartment.go): each group below is owned by
	// exactly one compartment and reached from the others only through
	// an audited gate crossing. The world-switch compartment owns no
	// long-lived state (per-run hvCtx and pending exits only).
	life  lifecycleState
	alloc allocState
	att   attestState

	// comp is the per-compartment health, gate-PMP, and crossing record.
	comp [NumCompartments]compartmentState

	// tel is the cross-layer telemetry scope (nil = disabled).
	tel *telemetry.Scope

	// Stats observable by the harness.
	Stats Stats

	// loadBuf is loadPage's copy of the staging page, used under mu.
	loadBuf *[isa.PageSize]byte
}

// lifecycleState is the CVM table and quarantine records — owned by
// CompLifecycle.
type lifecycleState struct {
	cvms        map[int]*CVM
	nextID      int
	quarantined map[int]*QuarantineRecord
}

// allocState is the secure memory pool — owned by CompAlloc.
type allocState struct {
	pool securePool
}

// attestState is the platform key material and DRBG — owned by
// CompAttest. keyDigest is the boot-time digest the gate's integrity
// self-check verifies the key against on every crossing.
type attestState struct {
	key       []byte
	keyDigest [32]byte
	rng       *drbg
}

// Stats counts SM events for the experiment harness.
type Stats struct {
	Entries, Exits  uint64
	FaultStage      [4]uint64 // count, indexed by AllocStage
	FaultCycles     [4]uint64 // cycles, indexed by AllocStage
	SharedChecks    uint64
	TamperDetected  uint64
	ExpansionRounds uint64

	// World-switch timing (§V.B): cycles from the hypervisor's run
	// request until the guest executes (Entry), and from the guest's trap
	// until the hypervisor regains control (Exit). Histograms carry exact
	// Count/Sum (Mean reproduces the former raw-sum statistics bit for
	// bit) plus p50/p99 tail latency.
	Entry, Exit *telemetry.Histogram

	// Robustness counters: CVMs quarantined by the graceful-degradation
	// policy, unexpected machine interrupts tolerated during confidential
	// runs, and invariant-audit activity.
	Quarantines   uint64
	SpuriousTraps uint64
	AuditRuns     uint64
	AuditFindings uint64

	// Compartment-gate activity: audited crossings, typed refusals
	// (illegal crossing or quarantined callee), and compartments taken
	// out of service by the privilege-separation machinery.
	GateCalls              uint64
	GateDenied             uint64
	CompartmentQuarantines uint64
}

// New installs a Secure Monitor on the machine. It programs the baseline
// PMP plan on every hart: S/U gets RAM and the MMIO window; registered
// secure-pool regions are carved out on registration. A platform whose
// memory layout the PMP cannot express is rejected with a typed
// fatal-platform error rather than a panic: the machine simply cannot
// enter confidential mode.
func New(m *platform.Machine, cfg Config) (*SM, error) {
	s := &SM{
		machine: m,
		ram:     m.RAM,
		cfg:     cfg,
		loadBuf: new([isa.PageSize]byte),
		life: lifecycleState{
			cvms:        make(map[int]*CVM),
			quarantined: make(map[int]*QuarantineRecord),
			nextID:      1,
		},
		att: attestState{
			key: []byte("zion-platform-sealing-key-v1"),
			rng: newDRBG([]byte("zion-platform-entropy-seed")),
		},
	}
	s.att.keyDigest = sha256.Sum256(s.att.key)
	for c := Compartment(0); c < NumCompartments; c++ {
		s.programGatePMP(c)
	}
	s.Stats.Entry = telemetry.NewHistogram()
	s.Stats.Exit = telemetry.NewHistogram()
	s.tel = cfg.Telemetry
	s.tel.RegisterHistogram("sm/ws_entry_cycles", s.Stats.Entry)
	s.tel.RegisterHistogram("sm/ws_exit_cycles", s.Stats.Exit)
	for _, h := range m.Harts {
		if err := s.programBasePMP(h); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// PMP entry plan (per hart):
//
//	0..7  secure-pool regions — perm 0 in Normal mode, RWX in CVM mode
//	13    MMIO window [0, RAMBase) RW for S/U
//	14    all RAM RWX for S/U
const (
	pmpPoolFirst = 0
	pmpPoolLast  = 7
	pmpMMIO      = 13
	pmpRAM       = 14
)

// Exported PMP-plan indices: the fault-injection harness corrupts these
// entries from outside the package and expects Audit/RepairPMP to react.
const (
	PMPPoolFirst = pmpPoolFirst
	PMPPoolLast  = pmpPoolLast
	PMPMMIOEntry = pmpMMIO
	PMPRAMEntry  = pmpRAM
)

func (s *SM) programBasePMP(h *hart.Hart) error {
	mmio, err := pmp.EncodeNAPOT(0, platform.RAMBase)
	if err != nil {
		return smErr(CodePlatform, SevFatalPlatform, 0, "program-base-pmp",
			fmt.Errorf("MMIO window not NAPOT-encodable: %w", err))
	}
	h.PMP.SetAddr(pmpMMIO, mmio)
	h.PMP.SetCfg(pmpMMIO, pmp.PermR|pmp.PermW|pmp.ANAPOT<<3)
	ram, err := pmp.EncodeNAPOT(s.ram.Base(), roundPow2(s.ram.Size()))
	if err != nil {
		return smErr(CodePlatform, SevFatalPlatform, 0, "program-base-pmp",
			fmt.Errorf("RAM window not NAPOT-encodable: %w", err))
	}
	h.PMP.SetAddr(pmpRAM, ram)
	h.PMP.SetCfg(pmpRAM, pmp.PermR|pmp.PermW|pmp.PermX|pmp.ANAPOT<<3)
	h.Advance(4 * h.Cost.PMPWriteEntry)
	return nil
}

func roundPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// HVCall is the hypervisor's ECALL gateway into the SM. It charges the
// trap-entry, dispatch and trap-return costs of a real ecall round trip.
// Every failure surfaces as a typed *SMError carrying a stable code, a
// severity, and the CVM scope; hostile or malformed calls reject that one
// call and change no SM state.
func (s *SM) HVCall(h *hart.Hart, fn FuncID, args ...uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := h.Cycles
	s.tel.AttrSwitch(h.ID, start, telemetry.NoCVM, telemetry.AttrSMOther)
	h.Advance(h.Cost.TrapEntry + h.Cost.SMDispatch)
	defer h.Advance(h.Cost.TrapReturn)
	a := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	var ret uint64
	var err error
	cvmID := 0
	// One audited host→owner gate crossing admits the whole call: a
	// quarantined owner compartment refuses here with a typed error and
	// the dispatch body never runs. Destroy is the forced exception —
	// teardown must drain even through a quarantined compartment.
	if gerr := s.gateEnter(h, CompHost, opCompartment(fn), opName(fn), fn == FnDestroy); gerr != nil {
		err = gerr
		switch fn {
		case FnRegisterPool, FnCreateCVM, FnGrantDMA:
		default:
			cvmID = int(a(0)) // scope the refusal for the caller
		}
	} else {
		switch fn {
		case FnRegisterPool:
			err = s.registerPool(h, a(0), a(1))
		case FnCreateCVM:
			ret, err = s.createCVM(h)
		case FnLoadPage:
			cvmID = int(a(0))
			err = s.loadPage(h, cvmID, a(1), a(2))
		case FnFinalize:
			cvmID = int(a(0))
			err = s.finalize(h, cvmID, a(1))
		case FnCreateVCPU:
			cvmID = int(a(0))
			ret, err = s.createVCPU(cvmID, a(1))
		case FnDestroy:
			cvmID = int(a(0))
			// Destroy of a quarantined CVM releases its post-mortem record:
			// the frames were already scrubbed at quarantine time, so this is
			// the hypervisor acknowledging the diagnosis.
			if s.releaseQuarantine(cvmID) {
				err = nil
			} else {
				err = s.destroy(h, cvmID)
			}
		case FnRegisterShared:
			cvmID = int(a(0))
			err = s.registerShared(h, cvmID, a(1))
		case FnRevokeShared:
			cvmID = int(a(0))
			err = s.revokeShared(h, cvmID)
		case FnGrantDMA:
			err = s.grantDMA(h, a(0), a(1), a(2))
		case FnSuspend:
			cvmID = int(a(0))
			err = s.suspend(cvmID)
		case FnResume:
			cvmID = int(a(0))
			err = s.resume(cvmID)
		case FnRun:
			// Run has a richer result; hypervisors use RunVCPU instead.
			err = ErrBadArgs
		default:
			err = ErrBadArgs
		}
	}
	if s.cfg.AuditLifecycle && fn != FnRun {
		s.auditLocked()
	}
	if s.tel != nil {
		cvm := telemetry.NoCVM
		if cvmID != 0 {
			cvm = cvmID
		}
		h.Flight.Span(telemetry.EvHVCall, start, h.Cycles, cvm, uint64(fn), opName(fn))
		s.tel.Counter("sm/hvcalls").Inc()
		if err != nil {
			s.tel.Counter("sm/hvcall_errors").Inc()
		}
		s.tel.AttrSwitch(h.ID, h.Cycles, telemetry.NoCVM, telemetry.AttrHost)
	}
	return ret, wrapErr(opName(fn), cvmID, err)
}

// registerPool accepts a contiguous physical region from the hypervisor
// and converts it to secure memory: PMP carve-out on every hart, IOPMP
// default-deny (devices are never granted windows into it), block split.
// Every check precedes the commit, so a rejected call changes nothing.
func (s *SM) registerPool(h *hart.Hart, base, size uint64) error {
	if !s.ram.Contains(base, size) {
		return ErrBadArgs
	}
	idx, raw, err := poolPMPEntry(len(s.alloc.pool.regions), base, size)
	if err != nil {
		return err
	}
	if err := s.alloc.pool.register(base, size); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	// PMP carve-out plus TLB shootdown on every hart. Peer harts are
	// reached through the IPI seam (Machine.OnHart): sequential runs
	// apply immediately; under the parallel engine the reprogramming is
	// delivered at the peer's next quantum barrier, on its own goroutine.
	for _, hh := range s.machine.Harts {
		hh := hh
		s.machine.OnHart(h.ID, hh.ID, func() {
			prev := s.tel.AttrPush(hh.ID, hh.Cycles, telemetry.AttrPMP)
			hh.PMP.SetAddr(idx, raw)
			hh.PMP.SetCfg(idx, pmp.ANAPOT<<3) // perm 0: Normal mode locked out
			hh.Advance(hh.Cost.PMPWriteEntry)
			s.tel.AttrPop(hh.ID, hh.Cycles, prev)
		})
	}
	// TLB shootdown: translations into the region may be cached.
	for _, hh := range s.machine.Harts {
		hh := hh
		s.machine.OnHart(h.ID, hh.ID, func() {
			prev := s.tel.AttrPush(hh.ID, hh.Cycles, telemetry.AttrTLB)
			hh.TLB.FlushAll()
			hh.Advance(hh.Cost.TLBFlushAll)
			s.tel.AttrPop(hh.ID, hh.Cycles, prev)
		})
	}
	h.Advance(h.Cost.IOPMPUpdate)
	return nil
}

// poolPMPEntry returns the PMP entry and NAPOT address that carve the
// i-th secure region [base, base+size) out of Normal mode, or the reason
// the plan has no valid entry for it.
func poolPMPEntry(i int, base, size uint64) (int, uint64, error) {
	idx := pmpPoolFirst + i
	if idx > pmpPoolLast {
		return 0, 0, fmt.Errorf("%w: out of PMP pool entries", ErrBadArgs)
	}
	raw, err := pmp.EncodeNAPOT(base, roundPow2(size))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: pool region must be NAPOT-encodable: %v", ErrBadArgs, err)
	}
	return idx, raw, nil
}

// grantDMA programs an IOPMP window for a device source on behalf of the
// hypervisor. The SM is the only software that touches the IOPMP (§IV.C);
// it refuses any window that intersects secure memory, so DMA-capable
// devices can never read or corrupt confidential state. A source id
// wider than the IOPMP's is rejected, never truncated onto another source.
func (s *SM) grantDMA(h *hart.Hart, sid, base, size uint64) error {
	if sid != uint64(iopmp.SourceID(sid)) || size == 0 || !s.ram.Contains(base, size) {
		return ErrBadArgs
	}
	for _, r := range s.alloc.pool.regions {
		if base < r.end && base+size > r.base {
			return fmt.Errorf("%w: DMA window intersects secure pool", ErrOwnership)
		}
	}
	md := int(sid) // one memory domain per source keeps windows independent
	s.machine.IOPMP.DefineDomain(md)
	if err := s.machine.IOPMP.AssignSource(iopmp.SourceID(sid), md); err != nil {
		return err
	}
	if err := s.machine.IOPMP.AddEntry(md, iopmp.Entry{Base: base, Size: size,
		Perm: pmp.PermR | pmp.PermW}); err != nil {
		return err
	}
	h.Advance(h.Cost.IOPMPUpdate)
	return nil
}

// createCVM allocates the CVM record, its stage-2 builder, and its
// stage-2 root (in secure memory, §IV.C: "the SM configures page tables
// for confidential VMs within the secure memory pool").
func (s *SM) createCVM(h *hart.Hart) (uint64, error) {
	if len(s.life.cvms) >= MaxCVMs {
		return 0, ErrConcurrency
	}
	// A CVM cannot be born without its measurement: the attest
	// compartment must be healthy to issue a measurer (degraded-mode
	// contract — an SM that lost attestation refuses new creates but
	// keeps running and tearing down existing CVMs).
	var meas *measurer
	if err := s.gate(h, CompLifecycle, CompAttest, "new-measurer", func() error {
		meas = newMeasurer()
		return nil
	}); err != nil {
		return 0, err
	}
	c := &CVM{
		ID:       s.life.nextID,
		measurer: meas,
	}
	s.life.nextID++
	c.vmid = uint16(c.ID & 0x3FFF)
	c.pt = ptw.Builder{Mem: s.ram, Alloc: func() (uint64, error) {
		pa, _, _, err := s.alloc.pool.allocPage(&c.tableCache)
		if err != nil {
			return 0, err
		}
		c.owned.add(pa)
		return pa, nil
	}}
	var root uint64
	if err := s.gate(h, CompLifecycle, CompAlloc, "alloc-root", func() error {
		var err error
		root, err = c.pt.NewRoot(true)
		return err
	}); err != nil {
		return 0, err
	}
	c.hgatpRoot = root
	s.life.cvms[c.ID] = c
	h.Advance(4 * h.Cost.Mem)
	return uint64(c.ID), nil
}

// privateLeaf is the stage-2 leaf permission of every private page.
const privateLeaf = isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEUser

// fillError marks an installPage failure in the fill step (the frame
// escaped RAM) rather than in the stage-2 map.
type fillError struct{ error }

func (e fillError) Unwrap() error { return e.error }

// installPage is the one path by which a CVM gains a private frame
// (§IV.C): pa, just allocated from one of the CVM's page caches, is
// recorded as owned, filled — zeroed when src is nil, unless the
// allocator reported it clean (zeroed by the SM's own scrub and
// untouched since), else a copy of the page src — mapped at gpa with the
// private leaf flags, and recorded in the CVM's mappings. Callers keep
// their own cache, gate and charges. When the map fails, the frame is
// scrubbed and returned to its cache block, so no owned entry outlives
// the failed install.
func (s *SM) installPage(c *CVM, gpa, pa uint64, clean bool, src []byte) error {
	c.owned.add(pa)
	var err error
	switch {
	case src != nil:
		err = s.ram.Write(pa, src)
	case !clean:
		err = s.ram.Zero(pa, isa.PageSize)
	}
	if err != nil {
		return fillError{err}
	}
	if err := c.pt.Map(c.hgatpRoot, gpa, pa, privateLeaf, 0, true); err != nil {
		// The frame was never mapped, so no hart can store into it.
		if ferr := s.freeFrame(c, pa, true); ferr != nil {
			return errors.Join(err, ferr)
		}
		return err
	}
	c.mappings.set(gpa, pa)
	return nil
}

// freeFrame scrubs an owned frame the CVM no longer maps, drops it from
// the owned set and frees it in whichever of the CVM's cache blocks
// carries it. The frame comes back clean only when settled is true: no
// hart but the caller's can still hold a translation to it.
func (s *SM) freeFrame(c *CVM, pa uint64, settled bool) error {
	if err := s.ram.Zero(pa, isa.PageSize); err != nil {
		return err
	}
	c.owned.remove(pa)
	for _, cache := range c.pageCaches() {
		if blk := cache.ownerOf(pa); blk != nil {
			return blk.freePage(pa, settled)
		}
	}
	return ErrNotFound
}

// loadPage copies one page of the initial image from normal memory into a
// fresh secure page, maps it at gpa, and extends the measurement.
func (s *SM) loadPage(h *hart.Hart, id int, gpa, srcPA uint64) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if c.state != stBuilding {
		return ErrBadState
	}
	if gpa%isa.PageSize != 0 || srcPA%isa.PageSize != 0 {
		return ErrBadArgs
	}
	if gpa >= SharedBase && gpa < SharedBase+(1<<30) {
		return fmt.Errorf("%w: cannot load image into the shared window", ErrBadArgs)
	}
	if s.alloc.pool.contains(srcPA, isa.PageSize) {
		return ErrNotNormal // image source must come from normal memory
	}
	data := s.loadBuf[:]
	if err := s.ram.ReadInto(srcPA, data); err != nil {
		return err
	}
	// One allocator crossing admits the whole allocation transaction
	// (page grab, image copy, stage-2 map): the table builder's internal
	// frame allocations ride the same admission.
	if err := s.gate(h, CompLifecycle, CompAlloc, "load-page", func() error {
		pa, _, _, err := s.alloc.pool.allocPage(&c.tableCache)
		if err != nil {
			return err
		}
		return s.installPage(c, gpa, pa, false, data)
	}); err != nil {
		return err
	}
	if err := s.gate(h, CompLifecycle, CompAttest, "extend-measurement", func() error {
		c.measurer.extendPage(gpa, data)
		return nil
	}); err != nil {
		return err
	}
	h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy)
	return nil
}

// finalize seals the measurement and marks the CVM runnable.
func (s *SM) finalize(h *hart.Hart, id int, entryPC uint64) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if c.state != stBuilding {
		return ErrBadState
	}
	if err := s.gate(h, CompLifecycle, CompAttest, "seal-measurement", func() error {
		c.measurer.extendEntry(entryPC)
		c.measurer.seal()
		return nil
	}); err != nil {
		return err
	}
	c.entryPC = entryPC
	c.state = stRunnable
	return nil
}

// createVCPU attaches a vCPU with its shared page (normal memory).
func (s *SM) createVCPU(id int, sharedPA uint64) (uint64, error) {
	c, err := s.cvm(id)
	if err != nil {
		return 0, err
	}
	if c.state != stRunnable {
		return 0, ErrBadState // vCPUs boot from the sealed entry point
	}
	if sharedPA%isa.PageSize != 0 || !s.ram.Contains(sharedPA, isa.PageSize) {
		return 0, ErrBadArgs
	}
	if s.alloc.pool.contains(sharedPA, isa.PageSize) {
		return 0, ErrNotNormal // shared vCPU must be hypervisor-accessible
	}
	v := &VCPU{ID: len(c.vcpus), sharedPA: sharedPA}
	v.sec.PC = c.entryPC
	c.vcpus = append(c.vcpus, v)
	return uint64(v.ID), nil
}

// destroy scrubs and releases everything the CVM owned.
func (s *SM) destroy(h *hart.Hart, id int) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	// Scrub every owned frame, in ascending order, before the pool can
	// hand it to anyone else.
	for pa, ok := c.owned.next(0); ok; pa, ok = c.owned.next(pa + isa.PageSize) {
		if err := s.ram.Zero(pa, isa.PageSize); err != nil {
			return err
		}
		h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy / 2)
	}
	// Give-backs ride a forced allocator crossing: audited, salvage-aware,
	// never denied — a quarantined allocator still accepts returned blocks
	// so teardown and leak accounting survive the compromise. Every owned
	// frame was scrubbed, so they all come back clean, unless a vCPU still
	// runs on another hart: its stale translations may store into them
	// until the shootdown below lands there.
	_ = s.gateForce(h, CompLifecycle, CompAlloc, "release-frames", func() error {
		s.releaseCaches(h, c)
		return nil
	})
	c.state = stDead
	delete(s.life.cvms, id)
	// Stage-2 translations for this VMID die with it.
	s.shootdownVMID(h, c.vmid, h.Cost.TLBFlushAll)
	return nil
}

// pageCaches lists every page cache a CVM draws secure frames from: its
// stage-2 table cache, then each vCPU's memory cache.
func (c *CVM) pageCaches() []*pageCache {
	out := make([]*pageCache, 1, 1+len(c.vcpus))
	out[0] = &c.tableCache
	for _, v := range c.vcpus {
		out = append(out, &v.memCache)
	}
	return out
}

// releaseCaches returns every block of the CVM's page caches to the pool
// (teardown). The caller has scrubbed every frame left in c.owned, and
// those come back clean, unless a vCPU of c runs on a hart other than h:
// that hart's translations to the frames die only when the shootdown
// reaches it, at its next quantum barrier under the parallel engine, so
// then no frame comes back clean and each keeps its zero-fill on
// allocation.
func (s *SM) releaseCaches(h *hart.Hart, c *CVM) {
	scrubbed := &c.owned
	if c.runsBeside(h) {
		scrubbed = nil
	}
	for _, pc := range c.pageCaches() {
		s.alloc.pool.releaseAll(pc, scrubbed)
	}
}

// runsBeside reports whether a vCPU of c is inside RunVCPU's run on a
// hart other than h.
func (c *CVM) runsBeside(h *hart.Hart) bool {
	for _, v := range c.vcpus {
		if v.on != nil && v.on != h {
			return true
		}
	}
	return false
}

// shootdownVMID flushes vmid's cached translations on every hart,
// charging each hart cost cycles attributed to AttrTLB. Peer harts are
// reached through the IPI seam (Machine.OnHart): immediate in sequential
// runs, at the peer's next quantum barrier under the parallel engine.
func (s *SM) shootdownVMID(h *hart.Hart, vmid uint16, cost uint64) {
	for _, hh := range s.machine.Harts {
		hh := hh
		s.machine.OnHart(h.ID, hh.ID, func() {
			prev := s.tel.AttrPush(hh.ID, hh.Cycles, telemetry.AttrTLB)
			hh.TLB.FlushVMID(vmid)
			hh.Advance(cost)
			s.tel.AttrPop(hh.ID, hh.Cycles, prev)
		})
	}
}

func (s *SM) cvm(id int) (*CVM, error) {
	c, ok := s.life.cvms[id]
	if !ok {
		if _, q := s.life.quarantined[id]; q {
			return nil, ErrQuarantined
		}
		return nil, ErrNotFound
	}
	return c, nil
}

// Measurement returns the sealed measurement of a CVM (hypervisor-visible;
// it is not secret, only integrity-relevant).
func (s *SM) Measurement(id int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cvm(id)
	if err != nil {
		return nil, err
	}
	if c.state == stBuilding {
		return nil, ErrBadState
	}
	return c.measurer.value(), nil
}

// PoolFreeBlocks exposes free-list depth (harness / hypervisor heuristics).
func (s *SM) PoolFreeBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.pool.FreeBlocks()
}

// PoolTotalBlocks exposes the pool's lifetime block count. A healthy SM
// with no live CVMs satisfies PoolFreeBlocks() == PoolTotalBlocks(); the
// fault-injection harness uses the difference as its leak detector.
func (s *SM) PoolTotalBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.pool.TotalBlocks()
}
