package hv

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/sm"
)

// Scheduler multiplexes many vCPUs — confidential and normal, mixed —
// over one hart with round-robin timeslicing, the role KVM's scheduler
// plays in the paper's setup. Confidential quanta are enforced by the SM
// (sm.Config.SchedQuantum); normal quanta by the hypervisor
// (Hypervisor.SchedQuantum). Both kinds run through RunVCPU and share one
// exit switch and one error policy.
type Scheduler struct {
	k     *Hypervisor
	queue []*schedEntry

	// DegradedRefusals counts confidential slices the SM refused with a
	// typed compartment-quarantine error (sm.CodeCompartment): the monitor
	// is running degraded and the scheduler retired the entry — the fleet
	// keeps running on the surviving compartments.
	DegradedRefusals uint64
}

type schedEntry struct {
	vm     *VM
	vcpu   int
	done   bool
	result sm.ExitInfo
	rounds uint64
	err    error
}

// VMResult reports one vCPU's completion.
type VMResult struct {
	VM     *VM
	VCPU   int
	Data   uint64 // guest a0 at shutdown
	Data2  uint64 // guest a1 at shutdown
	Rounds uint64 // scheduling rounds consumed
	// Err is non-nil when this vCPU's VM failed instead of shutting down
	// (fatal per-CVM fault, quarantine, guest bug). Co-resident VMs are
	// unaffected: the scheduler degrades per-VM, never per-fleet.
	Err error
}

// NewScheduler creates an empty run queue.
func (k *Hypervisor) NewScheduler() *Scheduler { return &Scheduler{k: k} }

// Add enqueues a vCPU.
func (s *Scheduler) Add(vm *VM, vcpu int) {
	s.queue = append(s.queue, &schedEntry{vm: vm, vcpu: vcpu})
}

// RunAll round-robins the queue on hart h until every vCPU has shut
// down, returning per-vCPU results in enqueue order.
func (s *Scheduler) RunAll(h *hart.Hart) ([]VMResult, error) {
	remaining := len(s.queue)
	for guard := 0; remaining > 0; guard++ {
		if guard > 1_000_000 {
			return nil, fmt.Errorf("hv: scheduler livelock with %d vCPUs left", remaining)
		}
		for _, e := range s.queue {
			if e.done {
				continue
			}
			e.rounds++
			sliceStart := h.Cycles
			info, err := s.k.RunVCPU(h, e.vm, e.vcpu)
			s.k.Tel.Span(h.ID, "hv", "slice."+e.vm.Name, sliceStart, h.Cycles,
				e.vm.telID(), e.rounds)
			if err != nil {
				// Graceful degradation: a fatal per-CVM fault (the SM
				// quarantined the CVM), a recoverable protocol error or a
				// normal guest's bug retires this entry; the rest of the
				// queue keeps running. Only platform-fatal failures abort
				// the fleet.
				smerr, isSM := sm.AsSMError(err)
				if isSM && smerr.Severity == sm.SevFatalPlatform {
					return nil, fmt.Errorf("hv: %s/%d: %w", e.vm.Name, e.vcpu, err)
				}
				if isSM && smerr.Code == sm.CodeCompartment {
					s.DegradedRefusals++
					s.k.Tel.Counter("hv/degraded_refusals").Inc()
				}
				e.done, e.err = true, fmt.Errorf("hv: %s/%d: %w", e.vm.Name, e.vcpu, err)
				remaining--
				continue
			}
			switch info.Reason {
			case sm.ExitShutdown:
				e.done, e.result = true, info
				remaining--
			case sm.ExitTimer:
				// Quantum expired: next entry's turn.
			default:
				// A guest bug (undelegated exception, protocol abuse)
				// fails this VM, not the fleet.
				e.done, e.err = true, fmt.Errorf("hv: %s/%d: unexpected exit %v", e.vm.Name, e.vcpu, info.Reason)
				remaining--
			}
		}
	}
	out := make([]VMResult, len(s.queue))
	for i, e := range s.queue {
		out[i] = VMResult{VM: e.vm, VCPU: e.vcpu, Data: e.result.Data,
			Data2: e.result.Data2, Rounds: e.rounds, Err: e.err}
	}
	return out, nil
}
