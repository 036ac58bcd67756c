package sm

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
)

// registerShared implements the split-page-table handshake of §IV.E: the
// hypervisor builds a level-1 subtable (covering the 1 GiB shared window)
// in *normal* memory and hands its physical address to the SM. After
// validation the SM splices it into the CVM's root table. From then on
// the hypervisor updates shared mappings directly — no SM round trips,
// no synchronization protocol — while the private subtrees remain in
// secure memory where the hypervisor cannot even read them.
func (s *SM) registerShared(h *hart.Hart, id int, subtablePA uint64) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if subtablePA%isa.PageSize != 0 || !s.ram.Contains(subtablePA, isa.PageSize) {
		return ErrBadArgs
	}
	if s.alloc.pool.contains(subtablePA, isa.PageSize) {
		// The subtable itself must be hypervisor-writable, i.e. normal
		// memory; a secure-memory subtable would deadlock the design.
		return ErrNotNormal
	}
	n, err := s.validateTableLevel(subtablePA, 1)
	h.Advance(n * h.Cost.RegCheck)
	if err != nil {
		return err
	}
	if err := c.pt.SpliceRootEntry(c.hgatpRoot, SharedSlot, subtablePA, true); err != nil {
		return err
	}
	c.sharedSubtable = subtablePA
	// The root changed: stale translations for this VMID must go.
	s.shootdownVMID(h, c.vmid, h.Cost.TLBFlushAll)
	return nil
}

// revokeShared unsplices the shared subtable (virtio teardown).
func (s *SM) revokeShared(h *hart.Hart, id int) error {
	c, err := s.cvm(id)
	if err != nil {
		return err
	}
	if c.sharedSubtable == 0 {
		return ErrBadState
	}
	if err := s.ram.WriteUint64(c.hgatpRoot+SharedSlot*8, 0); err != nil {
		return err
	}
	c.sharedSubtable = 0
	s.shootdownVMID(h, c.vmid, h.Cost.TLBFlushAll)
	return nil
}

// validateTableLevel walks a hypervisor-supplied shared subtree (the
// subtable is level 1) and rejects it unless every table frame and every
// leaf target lies in normal memory. This is the structural guarantee
// behind §IV.E's security claim: the shared path can name normal memory
// only, so it can never become a window into any CVM's secure pool.
//
// n counts the valid entries checked, the failing one included. The
// architectural paths (registration, entry revalidation) charge
// n×RegCheck; the auditor, a diagnostic facility, charges nothing.
func (s *SM) validateTableLevel(tablePA uint64, level int) (n uint64, err error) {
	if s.alloc.pool.contains(tablePA, isa.PageSize) {
		return 0, fmt.Errorf("%w: shared subtable frame %#x in secure memory", ErrNotNormal, tablePA)
	}
	for i := uint64(0); i < 512; i++ {
		pte, err := s.ram.ReadUint64(tablePA + i*8)
		if err != nil {
			return n, err
		}
		if pte&isa.PTEValid == 0 {
			continue
		}
		n++
		target := (pte >> isa.PTEPPNShift) << isa.PageShift
		if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) == 0 {
			// Pointer to a lower-level table.
			if level == 0 {
				return n, fmt.Errorf("%w: non-leaf at level 0", ErrBadArgs)
			}
			sub, err := s.validateTableLevel(target, level-1)
			n += sub
			if err != nil {
				return n, err
			}
			continue
		}
		span := uint64(isa.PageSize) << (9 * uint(level))
		if s.leafTouchesSecure(target, span) {
			return n, fmt.Errorf("%w: shared leaf %#x maps secure memory", ErrOwnership, target)
		}
	}
	return n, nil
}

// leafTouchesSecure reports whether [pa, pa+span) intersects any secure
// region.
func (s *SM) leafTouchesSecure(pa, span uint64) bool {
	for _, r := range s.alloc.pool.regions {
		if pa < r.end && pa+span > r.base {
			return true
		}
	}
	return false
}
