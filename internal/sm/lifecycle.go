package sm

import (
	"zion/internal/hart"
	"zion/internal/isa"
)

// This file implements the remaining lifecycle operations §III.A lists —
// suspension and resumption — plus cooperative memory reclamation
// (a guest ballooning primitive layered on the hierarchical allocator).

// suspend freezes a runnable CVM: its secure vCPU state stays inside the
// SM (the hypervisor never sees it) and FnRun refuses until resume. The
// hypervisor uses this to deschedule or migrate-prepare a tenant.
func (s *SM) suspend(id int) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if c.state != stRunnable {
		return ErrBadState
	}
	c.state = stSuspended
	return nil
}

// resume thaws a suspended CVM.
func (s *SM) resume(id int) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if c.state != stSuspended {
		return ErrBadState
	}
	c.state = stRunnable
	return nil
}

// relinquishPage implements the guest-initiated page release
// (ZionFnRelinquish): the guest donates a private page back to the
// secure pool. The SM unmaps it, scrubs it, and returns it to the owning
// vCPU's cache block so the next fault reuses it — the reclamation half
// of §IV.D's allocation story.
func (s *SM) relinquishPage(h *hart.Hart, c *CVM, gpa uint64) error {
	if gpa < PrivateBase || gpa%isa.PageSize != 0 {
		return ErrBadArgs
	}
	pte, level, err := c.pt.Lookup(c.hgatpRoot, gpa, true)
	if err != nil {
		return ErrNotFound
	}
	if level != 0 {
		return ErrBadArgs // only 4 KiB private leaves are donatable
	}
	pa := (pte >> isa.PTEPPNShift) << isa.PageShift
	if !c.owned.has(pa) {
		return ErrOwnership
	}
	if _, err := c.pt.Unmap(c.hgatpRoot, gpa, true); err != nil {
		return err
	}
	c.mappings.delete(gpa)
	// freeFrame scrubs before the frame can ever be handed to anyone else.
	if err := s.freeFrame(c, pa, !c.runsBeside(h)); err != nil {
		return err
	}
	// The unmapped translation may be cached.
	s.shootdownVMID(h, c.vmid, h.Cost.TLBFlushAll/4)
	h.Advance(uint64(isa.PageSize/64) * h.Cost.CacheLineCopy / 2)
	return nil
}

// OwnedPages reports how many secure frames a CVM currently owns
// (observability for ballooning policies and tests).
func (s *SM) OwnedPages(id int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cvm(id)
	if err != nil {
		return 0, err
	}
	return c.owned.len(), nil
}
