package hv

import (
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/sm"
	"zion/internal/virtio"
)

// GuestMem is the device model's view of one VM's memory — the QEMU
// role: emulated virtio back-ends copy descriptor rings and buffers
// through it.
//
// For a normal VM every guest frame is reachable (the host maps all guest
// RAM). For a confidential VM only the shared GPA window resolves: the
// backing subtable is the hypervisor's own (§IV.E), and private GPAs have
// no hypervisor-visible mapping at all, so a CVM driver that posted a
// private buffer address gets a DMA error — the architectural behaviour
// ZION's split page table produces.
type GuestMem struct {
	K  *Hypervisor
	VM *VM
	H  *hart.Hart // cost accounting for the copies
}

// NewGuestMem builds the device view for a VM.
func (k *Hypervisor) NewGuestMem(vm *VM, h *hart.Hart) *GuestMem {
	return &GuestMem{K: k, VM: vm, H: h}
}

// Window implements virtio.Windowed: a confidential VM's device view
// reaches only the shared window, so the descriptor pump refuses a chain
// that points outside it before touching any payload. A normal VM's view
// is unbounded.
func (g *GuestMem) Window() (base, size uint64, ok bool) {
	if !g.VM.Confidential {
		return 0, 0, false
	}
	return sm.SharedBase, sharedWindowSize, true
}

// resolve maps one GPA to a host physical address, faulting mappings in
// the way the host kernel pins pages for emulation. n is the access
// length, reported in the typed out-of-window rejection.
//
// On a CVM's window resolve also returns the live host bytes of the
// backing page, which the caller copies through directly; the window's
// shadow caches them on the page's first copy. A backing PA outside RAM
// has no host bytes (nil), so its copies take PhysMemory's own path and
// error, as do all of a normal VM's.
func (g *GuestMem) resolve(gpa uint64, n int) (*[isa.PageSize]byte, uint64, error) {
	if g.VM.Confidential {
		off := gpa - sm.SharedBase
		if off >= sharedWindowSize {
			// Typed: the virtio transport maps this onto DEVICE_NEEDS_RESET
			// and the rejected-DMA counter. This is the architectural "CVM
			// driver posted a private buffer address" failure.
			return nil, 0, &virtio.OutOfWindowError{GPA: gpa, Len: n}
		}
		e := g.VM.shared.entry(off)
		if e != nil {
			if host := e.host.Load(); host != nil {
				return host, e.pa.Load()&^sharedValid | off&(isa.PageSize-1), nil
			}
		}
		pa, ok := g.VM.shared.lookup(off)
		if !ok {
			base, err := g.K.MapShared(g.H, g.VM, gpa)
			if err != nil {
				return nil, 0, err
			}
			pa = base + gpa&(isa.PageSize-1)
			e = g.VM.shared.entry(off)
		}
		page := g.K.M.RAM.PageSlice(pa)
		if page == nil {
			return nil, pa, nil
		}
		e.host.CompareAndSwap(nil, (*[isa.PageSize]byte)(page))
		return e.host.Load(), pa, nil
	}
	b := g.K.builder()
	pte, level, err := b.Lookup(g.VM.hgatpRoot, gpa, true)
	if err != nil {
		// Host-side touch of a not-yet-faulted guest page: map it now.
		if ferr := g.K.normalStage2Fault(g.H, g.VM, gpa); ferr != nil {
			return nil, 0, ferr
		}
		pte, level, err = b.Lookup(g.VM.hgatpRoot, gpa, true)
		if err != nil {
			return nil, 0, err
		}
	}
	mask := (uint64(1) << uint(isa.PageShift+9*level)) - 1
	return nil, (pte>>isa.PTEPPNShift)<<isa.PageShift | gpa&mask, nil
}

// ReadBytes implements virtio.MemIO, page-fragment by page-fragment.
func (g *GuestMem) ReadBytes(gpa uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := g.ReadInto(gpa, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto implements virtio.MemIO: the allocation-free read the batched
// descriptor pump runs on. Simulated-cycle charges are identical to
// ReadBytes (same per-fragment formula), so switching a caller between
// the two never moves a fingerprint.
func (g *GuestMem) ReadInto(gpa uint64, out []byte) error {
	for len(out) > 0 {
		host, pa, err := g.resolve(gpa, len(out))
		if err != nil {
			return err
		}
		po := int(gpa & (isa.PageSize - 1))
		chunk := isa.PageSize - po
		if chunk > len(out) {
			chunk = len(out)
		}
		if host != nil {
			copy(out[:chunk], host[po:])
		} else if err := g.K.M.RAM.ReadInto(pa, out[:chunk]); err != nil {
			return err
		}
		out = out[chunk:]
		gpa += uint64(chunk)
		g.H.Advance(uint64(chunk/64+1) * g.H.Cost.CacheLineCopy / 4)
	}
	return nil
}

// WriteBytes implements virtio.MemIO. A copy through a CVM window
// page's host bytes first notifies the RAM's code-page watchers, in the
// order PhysMemory.Write keeps, so a decoding of the page is dropped
// before the new bytes could be fetched.
func (g *GuestMem) WriteBytes(gpa uint64, b []byte) error {
	for len(b) > 0 {
		host, pa, err := g.resolve(gpa, len(b))
		if err != nil {
			return err
		}
		po := int(gpa & (isa.PageSize - 1))
		chunk := isa.PageSize - po
		if chunk > len(b) {
			chunk = len(b)
		}
		if host != nil {
			g.K.M.RAM.NoteWrite(pa, uint64(chunk))
			copy(host[po:], b[:chunk])
		} else if err := g.K.M.RAM.Write(pa, b[:chunk]); err != nil {
			return err
		}
		gpa += uint64(chunk)
		b = b[chunk:]
		g.H.Advance(uint64(chunk/64+1) * g.H.Cost.CacheLineCopy / 4)
	}
	return nil
}
