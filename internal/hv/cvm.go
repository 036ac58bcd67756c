package hv

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/sm"
)

// RegisterSecurePool carves size bytes of contiguous normal memory out of
// the hypervisor's heap and registers it with the SM as secure memory.
// The region must be NAPOT-encodable, so size is rounded to a power of two.
func (k *Hypervisor) RegisterSecurePool(h *hart.Hart, size uint64) error {
	size = roundPow2(size)
	base, err := k.Alloc.Contig(size, size)
	if err != nil {
		return err
	}
	_, err = k.SM.HVCall(h, sm.FnRegisterPool, base, size)
	return err
}

func roundPow2(v uint64) uint64 {
	p := uint64(sm.BlockSize)
	for p < v {
		p <<= 1
	}
	return p
}

// CreateCVM builds a confidential VM through the SM protocol: stage the
// image in normal memory, FnLoadPage each page (the SM copies it into
// secure memory and measures it), finalize, and create vCPU 0 with its
// shared page.
func (k *Hypervisor) CreateCVM(h *hart.Hart, name string, image []byte, entry uint64) (*VM, error) {
	vm := &VM{Name: name, Confidential: true}
	id64, err := k.SM.HVCall(h, sm.FnCreateCVM)
	if err != nil {
		return nil, err
	}
	vm.CVMID = int(id64)

	staging, err := k.Alloc.Page()
	if err != nil {
		return nil, err
	}
	for off := uint64(0); off < uint64(len(image)); off += isa.PageSize {
		n := uint64(len(image)) - off
		if n > isa.PageSize {
			n = isa.PageSize
		}
		if err := k.M.RAM.Write(staging, image[off:off+n]); err != nil {
			return nil, err
		}
		// Only a short final chunk leaves earlier bytes in the page.
		if n < isa.PageSize {
			if err := k.M.RAM.Zero(staging+n, isa.PageSize-n); err != nil {
				return nil, err
			}
		}
		if _, err := k.SM.HVCall(h, sm.FnLoadPage, id64, GuestRAMBase+off, staging); err != nil {
			return nil, err
		}
	}
	if _, err := k.SM.HVCall(h, sm.FnFinalize, id64, entry); err != nil {
		return nil, err
	}
	sh, err := k.Alloc.Page()
	if err != nil {
		return nil, err
	}
	if _, err := k.SM.HVCall(h, sm.FnCreateVCPU, id64, sh); err != nil {
		return nil, err
	}
	vm.sharedVCPU = append(vm.sharedVCPU, sh)
	k.mu.Lock()
	k.VMs = append(k.VMs, vm)
	k.mu.Unlock()
	return vm, nil
}

// AddCVMVCPU attaches another vCPU (with its own shared page) to a
// confidential VM; it boots from the measured entry point like vCPU 0.
func (k *Hypervisor) AddCVMVCPU(h *hart.Hart, vm *VM) (int, error) {
	if !vm.Confidential {
		return 0, fmt.Errorf("hv: VM %q is not confidential", vm.Name)
	}
	sh, err := k.Alloc.Page()
	if err != nil {
		return 0, err
	}
	id, err := k.SM.HVCall(h, sm.FnCreateVCPU, uint64(vm.CVMID), sh)
	if err != nil {
		return 0, err
	}
	vm.sharedVCPU = append(vm.sharedVCPU, sh)
	return int(id), nil
}

// SetupSharedWindow allocates the level-1 shared subtable in normal
// memory and registers it with the SM (§IV.E). Further shared mappings
// are pure hypervisor-side page-table writes.
func (k *Hypervisor) SetupSharedWindow(h *hart.Hart, vm *VM) error {
	sub, err := k.Alloc.Page()
	if err != nil {
		return err
	}
	if err := k.M.RAM.Zero(sub, isa.PageSize); err != nil {
		return err
	}
	vm.sharedSub = sub
	vm.shared = new(sharedWindow)
	_, err = k.SM.HVCall(h, sm.FnRegisterShared, uint64(vm.CVMID), sub)
	return err
}

// MapShared installs one 4 KiB shared-window mapping, entirely in
// hypervisor-owned memory: the split-page-table design means no SM call
// happens here. Concurrent callers on one VM are serialized by statMu;
// mapping a page that is already mapped returns the same PA and charges
// nothing.
func (k *Hypervisor) MapShared(h *hart.Hart, vm *VM, gpa uint64) (uint64, error) {
	if vm.sharedSub == 0 {
		return 0, fmt.Errorf("hv: shared window not registered")
	}
	if gpa < sm.SharedBase || gpa >= sm.SharedBase+sharedWindowSize {
		return 0, fmt.Errorf("hv: GPA %#x outside shared window", gpa)
	}
	gpa &^= uint64(isa.PageSize - 1)
	off := gpa - sm.SharedBase
	vm.statMu.Lock()
	defer vm.statMu.Unlock()
	if pa, ok := vm.shared.lookup(off); ok {
		return pa, nil
	}
	pa, err := k.Alloc.Page()
	if err != nil {
		return 0, err
	}
	if err := k.M.RAM.Zero(pa, isa.PageSize); err != nil {
		return 0, err
	}
	// Walk/extend the subtable by hand: level-1 entry then level-0 leaf.
	l1idx := gpa >> 21 & 0x1FF
	l1e, err := k.M.RAM.ReadUint64(vm.sharedSub + l1idx*8)
	if err != nil {
		return 0, err
	}
	var l0 uint64
	if l1e&isa.PTEValid == 0 {
		l0, err = k.Alloc.Page()
		if err != nil {
			return 0, err
		}
		if err := k.M.RAM.Zero(l0, isa.PageSize); err != nil {
			return 0, err
		}
		l1e = (l0>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid
		if err := k.M.RAM.WriteUint64(vm.sharedSub+l1idx*8, l1e); err != nil {
			return 0, err
		}
	} else {
		l0 = (l1e >> isa.PTEPPNShift) << isa.PageShift
	}
	l0idx := gpa >> isa.PageShift & 0x1FF
	leaf := (pa>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEWrite | isa.PTEUser
	if err := k.M.RAM.WriteUint64(l0+l0idx*8, leaf); err != nil {
		return 0, err
	}
	vm.shared.store(off, pa)
	h.Advance(3 * h.Cost.Mem)
	return pa, nil
}

// RunCVM drives one confidential vCPU until shutdown, quantum expiry, or
// an error: the hypervisor side of the ZION protocol. MMIO exits are
// emulated through the same device model normal VMs use, with results
// passed back through the shared vCPU; shared-window faults are fixed by
// MapShared with no SM involvement; pool-empty exits trigger expansion.
func (k *Hypervisor) RunCVM(h *hart.Hart, vm *VM, vcpuID int) (sm.ExitInfo, error) {
	if !vm.Confidential {
		return sm.ExitInfo{}, fmt.Errorf("hv: VM %q is not confidential", vm.Name)
	}
	var tally exitTally
	defer vm.foldExits(&tally)
	for {
		info, err := k.SM.RunVCPU(h, vm.CVMID, vcpuID)
		if err != nil {
			return info, err
		}
		if done, err := k.serveCVMExit(h, vm, vcpuID, info, &tally); done || err != nil {
			return info, err
		}
	}
}

// serveCVMExit counts one confidential exit in t and services it. done
// means the run ends with this exit: shutdown, quantum expiry or a guest
// error, which the caller reports.
func (k *Hypervisor) serveCVMExit(h *hart.Hart, vm *VM, vcpuID int, info sm.ExitInfo,
	t *exitTally) (done bool, err error) {
	switch info.Reason {
	case sm.ExitShutdown:
		t[exitShutdown]++
		return true, nil
	case sm.ExitTimer:
		t[exitTimer]++
		return true, nil
	case sm.ExitError:
		t[exitError]++
		return true, nil

	case sm.ExitMMIORead, sm.ExitMMIOWrite:
		t[exitMMIO]++
		// The answer goes back in the shared vCPU; the next run re-enters
		// the guest with it.
		return false, k.emulateCVMMMIO(h, vm, vcpuID, info)

	case sm.ExitSharedFault:
		t[exitSharedFault]++
		_, err := k.MapShared(h, vm, info.GPA)
		return false, err

	case sm.ExitPoolEmpty:
		t[exitPoolEmpty]++
		k.Tel.Counter("hv/pool_expansions").Inc()
		h.Advance(h.Cost.HVExpandAssist)
		if err := k.RegisterSecurePool(h, 4<<20); err != nil {
			return false, fmt.Errorf("hv: pool expansion failed: %w", err)
		}
		return false, nil
	}
	return false, fmt.Errorf("hv: unexpected CVM exit %v", info.Reason)
}

// emulateCVMMMIO completes a confidential MMIO access: the device model
// runs on the parameters the SM published in the shared vCPU, and for
// reads the result goes back through the shared vCPU data slot.
func (k *Hypervisor) emulateCVMMMIO(h *hart.Hart, vm *VM, vcpuID int, info sm.ExitInfo) error {
	k.Tel.Counter("hv/mmio_emulations").Inc()
	h.Advance(h.Cost.HVExitHandle + h.Cost.HVMMIOEmul)
	dev, off, ok := vm.deviceAt(info.GPA)
	if !ok {
		return fmt.Errorf("hv: CVM MMIO at unemulated GPA %#x", info.GPA)
	}
	if info.Reason == sm.ExitMMIOWrite {
		dev.MMIOWrite(off, info.Width, info.Data)
		return nil
	}
	val := dev.MMIORead(off, info.Width)
	// Publish the result in the shared vCPU; the SM validates the echoed
	// fields (Check-after-Load) and applies the data on resume.
	sh := vm.sharedVCPU[vcpuID]
	if err := k.M.RAM.WriteUint64(sh+sm.ShvData, val); err != nil {
		return err
	}
	h.Advance(h.Cost.RegCopy)
	return nil
}

// SnapshotCVM suspends a confidential VM and seals it into a hypervisor
// buffer, returning the blob bytes. The paper's suspension lifecycle plus
// sealed export: the hypervisor can store or ship the blob, but sees only
// ciphertext.
func (k *Hypervisor) SnapshotCVM(h *hart.Hart, vm *VM) ([]byte, error) {
	if !vm.Confidential {
		return nil, fmt.Errorf("hv: VM %q is not confidential", vm.Name)
	}
	if _, err := k.SM.HVCall(h, sm.FnSuspend, uint64(vm.CVMID)); err != nil {
		return nil, err
	}
	// Budget: private footprint + headers, rounded up generously.
	pages, err := k.SM.OwnedPages(vm.CVMID)
	if err != nil {
		return nil, err
	}
	budget := uint64(pages+8)*(isa.PageSize+16) + 4096
	buf, err := k.Alloc.Contig(budget, isa.PageSize)
	if err != nil {
		return nil, err
	}
	n, err := k.SM.Snapshot(h, vm.CVMID, buf, budget)
	if err != nil {
		return nil, err
	}
	return k.M.RAM.Read(buf, n)
}

// RestoreCVM rebuilds a confidential VM from a sealed snapshot blob and
// returns a fresh handle with vCPU 0's shared page attached.
func (k *Hypervisor) RestoreCVM(h *hart.Hart, name string, blob []byte) (*VM, error) {
	buf, err := k.Alloc.Contig(uint64(len(blob)+isa.PageSize), isa.PageSize)
	if err != nil {
		return nil, err
	}
	if err := k.M.RAM.Write(buf, blob); err != nil {
		return nil, err
	}
	id, err := k.SM.Restore(h, buf, uint64(len(blob)))
	if err != nil {
		return nil, err
	}
	vm := &VM{Name: name, Confidential: true, CVMID: id}
	sh, err := k.Alloc.Page()
	if err != nil {
		return nil, err
	}
	if err := k.SM.AttachSharedVCPU(id, 0, sh); err != nil {
		return nil, err
	}
	vm.sharedVCPU = append(vm.sharedVCPU, sh)
	k.mu.Lock()
	k.VMs = append(k.VMs, vm)
	k.mu.Unlock()
	return vm, nil
}
