package sm

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
)

// ExitReason tells the hypervisor why a confidential VM stopped running.
type ExitReason uint64

// Exit reasons surfaced to the hypervisor by FnRun.
const (
	ExitNone        ExitReason = iota
	ExitMMIORead               // guest load hit an unmapped GPA window
	ExitMMIOWrite              // guest store hit an unmapped GPA window
	ExitTimer                  // scheduler quantum expired
	ExitPoolEmpty              // stage-3 allocation: expand the secure pool
	ExitShutdown               // guest requested shutdown
	ExitError                  // unrecoverable guest or protocol error
	ExitSharedFault            // unmapped shared-window GPA: hypervisor must map it
)

// String implements fmt.Stringer.
func (r ExitReason) String() string {
	switch r {
	case ExitNone:
		return "none"
	case ExitMMIORead:
		return "mmio-read"
	case ExitMMIOWrite:
		return "mmio-write"
	case ExitTimer:
		return "timer"
	case ExitPoolEmpty:
		return "pool-empty"
	case ExitShutdown:
		return "shutdown"
	case ExitError:
		return "error"
	case ExitSharedFault:
		return "shared-fault"
	}
	return fmt.Sprintf("exit(%d)", uint64(r))
}

// Offsets within the shared vCPU page (§IV.B). The shared structure lives
// in *normal* memory so the hypervisor can read trap parameters and write
// emulation results without any SM round trip.
const (
	shvExitReason = 0x00 // ExitReason
	shvHtval      = 0x08 // faulting GPA >> 2
	shvHtinst     = 0x10 // transformed instruction
	shvTargetReg  = 0x18 // MMIO read: destination register index
	shvData       = 0x20 // MMIO data (HV->SM for reads, SM->HV for writes)
	shvSeq        = 0x28 // sequence number (Check-after-Load)
	shvWidth      = 0x30 // access width in bytes
	shvSize       = 0x38 // one 64-byte line in practice
)

// Exported shared-vCPU offsets: this layout is the hypervisor-facing ABI
// (documented in docs/ABI.md), so emulators and the fault-injection
// harness address the fields symbolically.
const (
	ShvExitReason = shvExitReason
	ShvHtval      = shvHtval
	ShvHtinst     = shvHtinst
	ShvTargetReg  = shvTargetReg
	ShvData       = shvData
	ShvSeq        = shvSeq
	ShvWidth      = shvWidth
	ShvSize       = shvSize
)

// pendingExit is the SM-private record of the in-flight hypervisor
// round trip, kept to validate the shared vCPU on resume (Check-after-Load,
// TwinVisor-style): every field the hypervisor could tamper with is
// re-derived from this secure copy. seq, reason, target and width are the
// 64-bit words publishExit writes, so resume compares them at full width.
// The zero value (valid false) means no round trip is in flight.
type pendingExit struct {
	valid                      bool
	seq, reason, target, width uint64
	op                         isa.Op // the trapped access; isa.ExtendLoad applies it
}

// VCPU binds the secure state, the shared page, and run bookkeeping.
type VCPU struct {
	ID int
	// sec is the protected vCPU state (§IV.B): it lives in SM memory (a Go
	// value here, physically inside the monitor's footprint) and is the
	// only authoritative copy of the guest's registers between runs.
	sec      hart.GuestContext
	sharedPA uint64 // shared vCPU page in normal memory (0 = not set)
	seq      uint64
	pending  pendingExit

	// memCache is this vCPU's page cache (§IV.D stage 1).
	memCache pageCache

	// on is the hart running this vCPU, set and cleared under s.mu around
	// RunVCPU's run loop; nil when the vCPU is not on a hart.
	on *hart.Hart
}
