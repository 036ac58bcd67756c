// Package hv implements the untrusted Normal-mode software stack: a
// KVM-like hypervisor with a frame allocator over normal memory, stage-2
// management for normal VMs, a QEMU-like MMIO device model, a round-robin
// scheduler, and the driver side of the ZION protocol (pool registration,
// CVM build, exit handling, split-page-table shared-window management).
//
// Nothing in this package is trusted: the SM treats every input from here
// as adversarial, and the security tests exercise exactly that boundary.
package hv

import (
	"errors"
	"fmt"
	"sync"

	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/ptw"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// FrameAlloc is a bump allocator over a normal-memory region. The real
// host kernel uses a buddy allocator; for the simulator's purposes only
// the contact surface (page-sized frames, contiguous region carve-outs)
// matters. It is safe for concurrent use: under the parallel engine
// several harts can fault and allocate frames in the same quantum.
type FrameAlloc struct {
	mu        sync.Mutex
	next, end uint64
}

// NewFrameAlloc covers [base, base+size).
func NewFrameAlloc(base, size uint64) *FrameAlloc {
	return &FrameAlloc{next: base, end: base + size}
}

// Page returns one zero-on-first-touch 4 KiB frame.
func (a *FrameAlloc) Page() (uint64, error) {
	return a.Contig(isa.PageSize, isa.PageSize)
}

// Contig returns a contiguous, aligned region.
func (a *FrameAlloc) Contig(size, align uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := (a.next + align - 1) &^ (align - 1)
	if p+size > a.end {
		return 0, errors.New("hv: normal memory exhausted")
	}
	a.next = p + size
	return p, nil
}

// Remaining reports bytes left.
func (a *FrameAlloc) Remaining() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.end - a.next
}

// EmuDevice is an emulated MMIO device (the QEMU role). Offsets are
// relative to the device's GPA window.
type EmuDevice interface {
	GPARange() (base, size uint64)
	MMIORead(off uint64, width int) uint64
	MMIOWrite(off uint64, width int, val uint64)
}

// VM is one guest, normal or confidential.
type VM struct {
	Name         string
	Confidential bool

	// Normal VMs: hypervisor-owned stage-2 and vCPU state. (A
	// confidential vCPU's context lives in the SM; the hypervisor never
	// sees it — that asymmetry is the point of ZION.)
	hgatpRoot uint64
	vmid      uint16
	vcpus     []*hart.GuestContext

	// Confidential VMs: SM handle plus hypervisor-side shared plumbing.
	CVMID      int
	sharedSub  uint64        // level-1 subtable (normal memory)
	shared     *sharedWindow // lock-free shadow of the subtable's leaves
	sharedVCPU []uint64      // per-vCPU shared page PAs

	devices []EmuDevice

	// statMu guards Exits and serializes the MapShared writers: vCPUs of
	// the same VM may exit and fault concurrently on different harts
	// under the parallel engine. SharedPA readers never take it. Exits
	// counts exits per reason; each run folds its own tallies in when it
	// returns (foldExits), so it is exact between runs.
	statMu sync.Mutex
	Exits  map[string]uint64
}

// Hypervisor is the Normal-mode kernel + VMM.
type Hypervisor struct {
	M     *platform.Machine
	SM    *sm.SM
	Alloc *FrameAlloc

	// mu guards VMs and the stage-2 fault counters; under the parallel
	// engine multiple harts create VMs and take stage-2 faults
	// concurrently. Guest stepping happens outside it.
	mu  sync.Mutex
	VMs []*VM

	// SchedQuantum in cycles for normal VMs (CVM quantum is SM config).
	SchedQuantum uint64

	// Stage-2 fault timing for normal VMs (§V.C comparison). Guarded by mu.
	S2FaultCycles, S2FaultCount uint64

	// Tel, when set via SetTelemetry, records scheduler-slice spans,
	// expansion/MMIO counters, and the normal-VM stage-2 fault histogram.
	Tel    *telemetry.Scope
	s2Hist *telemetry.Histogram
}

// SetTelemetry attaches the hypervisor to a telemetry scope (nil detaches).
func (k *Hypervisor) SetTelemetry(sc *telemetry.Scope) {
	k.Tel = sc
	k.s2Hist = sc.Histogram("hv/s2fault_cycles")
}

// New wires a hypervisor over the machine. normBase/normSize delimit the
// normal-memory heap it may allocate from (the rest of RAM holds images,
// the host kernel, and secure pools).
func New(m *platform.Machine, monitor *sm.SM, normBase, normSize uint64) *Hypervisor {
	k := &Hypervisor{
		M:     m,
		SM:    monitor,
		Alloc: NewFrameAlloc(normBase, normSize),
	}
	for _, h := range m.Harts {
		k.setupDelegation(h)
	}
	return k
}

// setupDelegation programs the boot-time (Normal mode) trap delegation the
// way OpenSBI + KVM do: guest faults, guest SBI calls and the supervisor
// interrupt lines are handled in HS-mode, and the VS interrupt lines are
// delegated on to the guest, so an injected hvip bit vectors into it.
func (k *Hypervisor) setupDelegation(h *hart.Hart) {
	medeleg := uint64(1)<<isa.ExcInstAddrMisaligned |
		uint64(1)<<isa.ExcIllegalInst |
		uint64(1)<<isa.ExcBreakpoint |
		uint64(1)<<isa.ExcLoadAddrMisaligned |
		uint64(1)<<isa.ExcStoreAddrMisaligned |
		uint64(1)<<isa.ExcEcallU |
		uint64(1)<<isa.ExcEcallVS |
		uint64(1)<<isa.ExcInstPageFault |
		uint64(1)<<isa.ExcLoadPageFault |
		uint64(1)<<isa.ExcStorePageFault |
		uint64(1)<<isa.ExcInstGuestPageFault |
		uint64(1)<<isa.ExcLoadGuestPageFault |
		uint64(1)<<isa.ExcStoreGuestPageFault |
		uint64(1)<<isa.ExcVirtualInst
	h.SetCSR(isa.CSRMedeleg, medeleg)
	h.SetCSR(isa.CSRMideleg, uint64(1)<<isa.IntSSoft|1<<isa.IntSTimer|1<<isa.IntSExt|
		1<<isa.IntVSSoft|1<<isa.IntVSTimer|1<<isa.IntVSExt)
	h.SetCSR(isa.CSRMie, uint64(1)<<isa.IntMTimer)
	h.SetCSR(isa.CSRHedeleg, 0)
	h.SetCSR(isa.CSRHideleg, uint64(1)<<isa.IntVSSoft|1<<isa.IntVSTimer|1<<isa.IntVSExt)
}

// builder returns a stage-2 builder over normal memory for normal VMs and
// shared subtables.
func (k *Hypervisor) builder() *ptw.Builder {
	return &ptw.Builder{Mem: k.M.RAM, Alloc: k.Alloc.Page}
}

// AttachDevice adds an emulated MMIO device to a VM.
func (k *Hypervisor) AttachDevice(vm *VM, d EmuDevice) { vm.devices = append(vm.devices, d) }

// deviceAt finds the emulated device covering a GPA.
func (vm *VM) deviceAt(gpa uint64) (EmuDevice, uint64, bool) {
	for _, d := range vm.devices {
		base, size := d.GPARange()
		if gpa >= base && gpa < base+size {
			return d, gpa - base, true
		}
	}
	return nil, 0, false
}

// telID is the VM's id in telemetry spans: its CVM id, or NoCVM for a
// normal VM.
func (vm *VM) telID() int {
	if vm.Confidential {
		return vm.CVMID
	}
	return telemetry.NoCVM
}

// RunVCPU runs one vCPU of either VM kind until the hypervisor needs the
// hart back: shutdown (ExitShutdown, the guest's a0/a1 in Data/Data2),
// quantum expiry or idle yield (ExitTimer), or an error. Both kinds take
// the same exits to the hypervisor — MMIO emulation through the device
// model, shared-window and stage-2 faults — and differ only in whose
// world switch saves the vCPU: the SM's for a CVM (RunCVM), the
// hypervisor's own for a normal VM.
func (k *Hypervisor) RunVCPU(h *hart.Hart, vm *VM, vcpu int) (sm.ExitInfo, error) {
	if vm.Confidential {
		return k.RunCVM(h, vm, vcpu)
	}
	return k.runNormalVCPU(h, vm, vcpu)
}

// exitKind indexes one run's exit tallies (exitTally); exitNames holds
// the VM.Exits key of each kind.
type exitKind uint8

const (
	exitMMIO exitKind = iota
	exitSharedFault
	exitPoolEmpty
	exitS2Fault
	exitTimer
	exitShutdown
	exitError
	numExitKinds
)

var exitNames = [numExitKinds]string{"mmio", "sharedfault", "poolempty", "s2fault",
	"timer", "shutdown", "error"}

// exitTally counts one run's exits by kind in plain memory: a run adds to
// it per exit and folds it into VM.Exits once, when it returns.
type exitTally [numExitKinds]uint64

// foldExits adds a run's tallies to VM.Exits under statMu. A kind the run
// never took adds no key, so the map holds exactly the kinds seen.
func (vm *VM) foldExits(t *exitTally) {
	if *t == (exitTally{}) {
		return
	}
	vm.statMu.Lock()
	defer vm.statMu.Unlock()
	if vm.Exits == nil {
		vm.Exits = make(map[string]uint64)
	}
	for k, n := range t {
		if n != 0 {
			vm.Exits[exitNames[k]] += n
		}
	}
}

// GuestRAMBase is where both normal and confidential guests see their RAM
// (matching the CVM private window so the same guest images run in both).
const GuestRAMBase = sm.PrivateBase

var errVMDead = fmt.Errorf("hv: VM terminated")
