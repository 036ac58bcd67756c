package hv

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// CreateNormalVM builds a plain (non-confidential) VM: hypervisor-owned
// stage-2 over normal memory, image copied in, one vCPU.
func (k *Hypervisor) CreateNormalVM(name string, image []byte, entry uint64) (*VM, error) {
	vm := &VM{Name: name}
	b := k.builder()
	// The Sv39x4 root needs 16 KiB contiguous+aligned frames.
	root, err := k.Alloc.Contig(4*isa.PageSize, 4*isa.PageSize)
	if err != nil {
		return nil, err
	}
	if err := k.M.RAM.Zero(root, 4*isa.PageSize); err != nil {
		return nil, err
	}
	vm.hgatpRoot = root
	// Copy the image into normal frames mapped at GuestRAMBase. Unlike a
	// CVM there is no measurement and no isolation from the hypervisor.
	for off := uint64(0); off < uint64(len(image)); off += isa.PageSize {
		pa, err := k.Alloc.Page()
		if err != nil {
			return nil, err
		}
		n := uint64(len(image)) - off
		if n > isa.PageSize {
			n = isa.PageSize
		}
		if err := k.M.RAM.Write(pa, image[off:off+n]); err != nil {
			return nil, err
		}
		flags := uint64(isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEUser)
		if err := b.Map(root, GuestRAMBase+off, pa, flags, 0, true); err != nil {
			return nil, err
		}
	}
	vm.vcpus = append(vm.vcpus, &hart.GuestContext{PC: entry, Mode: isa.ModeVS})
	k.mu.Lock()
	vm.vmid = uint16(len(k.VMs) + 0x100)
	k.VMs = append(k.VMs, vm)
	k.mu.Unlock()
	return vm, nil
}

// runNormalVCPU enters a normal guest and services its exits in HS-mode:
// stage-2 faults take the KVM software path, MMIO is emulated through the
// attached device model, SBI calls are handled by the in-hypervisor SBI
// shim. It returns when the guest shuts down or the quantum expires.
func (k *Hypervisor) runNormalVCPU(h *hart.Hart, vm *VM, vcpuID int) (sm.ExitInfo, error) {
	if vcpuID < 0 || vcpuID >= len(vm.vcpus) {
		return sm.ExitInfo{}, fmt.Errorf("hv: VM %q has no vCPU %d", vm.Name, vcpuID)
	}
	v := vm.vcpus[vcpuID]

	// vmentry: the hypervisor's own world switch (all HS-level, cheap
	// relative to the SM path — no PMP or delegation changes needed).
	// The context loads after the timer is armed, so the quantum counts
	// from before the register copy.
	h.SetCSR(isa.CSRHgatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|
		uint64(vm.vmid)<<isa.HgatpVMIDShift|vm.hgatpRoot>>isa.PageShift)
	v.StartQuantum(h, k.M.CLINT, k.SchedQuantum, 0)
	v.Load(h)
	v.Resume(h)

	for {
		_, ev := h.Run(k.M.CLINT, ^uint64(0))
		switch ev.Kind {
		case hart.EvHalt, hart.EvWFI:
			// The parallel engine halted the machine, or the guest idles
			// with nothing armed: yield at the guest's own PC and mode.
			if ev.Kind == hart.EvWFI && h.IdleUntilTimer(k.M.CLINT) {
				continue
			}
			v.PC, v.Mode = h.PC, h.Mode
			v.Save(h)
			return sm.ExitInfo{Reason: sm.ExitTimer}, nil
		case hart.EvTrap:
			t := ev.Trap
			switch t.Target {
			case isa.ModeVS:
				continue // guest handles its own delegated traps
			case isa.ModeS:
				exit, done, err := k.handleNormalExit(h, vm, v, t)
				if err != nil || done {
					return exit, err
				}
			case isa.ModeM:
				// Machine timer: if the guest's own deadline fired,
				// firmware injects a virtual supervisor timer and the
				// guest keeps running; otherwise the quantum expired.
				if t.Cause == isa.CauseInterruptBit|isa.IntMTimer {
					if v.TimerTrap(h, k.M.CLINT, 0, 0) {
						continue
					}
					v.PC = h.CSR(isa.CSRMepc)
					v.Save(h)
					vm.countExit("timer")
					return sm.ExitInfo{Reason: sm.ExitTimer}, nil
				}
				return sm.ExitInfo{Reason: sm.ExitError},
					fmt.Errorf("hv: unexpected M trap %s", isa.CauseName(t.Cause))
			}
		}
	}
}

// handleNormalExit services one HS-mode trap from a normal guest.
func (k *Hypervisor) handleNormalExit(h *hart.Hart, vm *VM, v *hart.GuestContext, t hart.Trap) (sm.ExitInfo, bool, error) {
	h.Advance(h.Cost.HVExitHandle)
	switch t.Cause {
	case isa.ExcLoadGuestPageFault, isa.ExcStoreGuestPageFault, isa.ExcInstGuestPageFault:
		gpa := t.Tval2 << 2
		if dev, off, ok := vm.deviceAt(gpa); ok {
			vm.countExit("mmio")
			if err := k.emulateMMIO(h, dev, off, t); err != nil {
				return sm.ExitInfo{Reason: sm.ExitError}, true, err
			}
			h.SetCSR(isa.CSRSepc, h.CSR(isa.CSRSepc)+4)
			h.SRet()
			return sm.ExitInfo{}, false, nil
		}
		if gpa >= GuestRAMBase {
			vm.countExit("s2fault")
			start := h.Cycles - h.Cost.TrapEntry - h.Cost.HVExitHandle
			if err := k.normalStage2Fault(h, vm, gpa); err != nil {
				return sm.ExitInfo{Reason: sm.ExitError}, true, err
			}
			h.SRet() // retry the access
			k.mu.Lock()
			k.S2FaultCycles += h.Cycles - start
			k.S2FaultCount++
			k.mu.Unlock()
			k.s2Hist.Observe(h.Cycles - start)
			k.Tel.Span(h.ID, "hv", "s2fault.normal", start, h.Cycles, telemetry.NoCVM, gpa)
			return sm.ExitInfo{}, false, nil
		}
		v.PC = h.CSR(isa.CSRSepc)
		v.Save(h)
		return sm.ExitInfo{Reason: sm.ExitError}, true,
			fmt.Errorf("hv: guest fault at unmapped GPA %#x", gpa)

	case isa.ExcEcallVS:
		done, err := k.handleGuestSBI(h, vm, v)
		if err != nil {
			return sm.ExitInfo{Reason: sm.ExitError}, true, err
		}
		if done {
			vm.countExit("shutdown")
			return sm.ExitInfo{Reason: sm.ExitShutdown, Data: v.X[10], Data2: v.X[11]}, true, nil
		}
		return sm.ExitInfo{}, false, nil
	}
	v.PC = h.CSR(isa.CSRSepc)
	v.Save(h)
	return sm.ExitInfo{Reason: sm.ExitError}, true,
		fmt.Errorf("hv: unhandled guest trap %s", isa.CauseName(t.Cause))
}

// normalStage2Fault is the KVM fault path: allocate a normal frame and
// map it. Charged with the measured software-path cost.
func (k *Hypervisor) normalStage2Fault(h *hart.Hart, vm *VM, gpa uint64) error {
	h.Advance(h.Cost.KVMFaultPath)
	pa, err := k.Alloc.Page()
	if err != nil {
		return err
	}
	if err := k.M.RAM.Zero(pa, isa.PageSize); err != nil {
		return err
	}
	b := k.builder()
	flags := uint64(isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEUser)
	return b.Map(vm.hgatpRoot, gpa&^uint64(isa.PageSize-1), pa, flags, 0, true)
}

// emulateMMIO decodes the trapped access from htinst and completes it
// against the device model — the QEMU role, charged as such.
func (k *Hypervisor) emulateMMIO(h *hart.Hart, dev EmuDevice, off uint64, t hart.Trap) error {
	h.Advance(h.Cost.HVMMIOEmul)
	in, ok := isa.DecodeTransformed(t.Tinst)
	if !ok {
		return fmt.Errorf("hv: MMIO fault without decodable htinst %#x", t.Tinst)
	}
	if in.IsStore() {
		dev.MMIOWrite(off, in.MemBytes(), h.Reg(in.Rs2))
		return nil
	}
	h.SetReg(in.Rd, isa.ExtendLoad(in.Op, dev.MMIORead(off, in.MemBytes())))
	return nil
}

// handleGuestSBI is the hypervisor's SBI shim for normal guests.
// done=true means the guest requested shutdown.
func (k *Hypervisor) handleGuestSBI(h *hart.Hart, vm *VM, v *hart.GuestContext) (bool, error) {
	eid := h.Reg(17)
	a0 := h.Reg(10)
	resume := func() {
		h.SetCSR(isa.CSRSepc, h.CSR(isa.CSRSepc)+4)
		h.SRet()
	}
	switch eid {
	case sm.EIDPutchar:
		k.M.UART.Access(h.ID, 0, 1, true, a0)
		h.SetReg(10, 0)
		resume()
		return false, nil
	case sm.EIDTime:
		v.SetTimer(h, k.M.CLINT, a0, 0)
		h.SetReg(10, 0)
		resume()
		return false, nil
	case sm.EIDReset:
		v.PC = h.CSR(isa.CSRSepc) + 4
		v.Save(h)
		return true, nil
	}
	h.SetReg(10, ^uint64(1)) // SBI_ERR_NOT_SUPPORTED
	resume()
	return false, nil
}
