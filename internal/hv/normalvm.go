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
	vm.vcpus = append(vm.vcpus, &VCPUState{PC: entry, Mode: isa.ModeVS})
	k.mu.Lock()
	vm.vmid = uint16(len(k.VMs) + 0x100)
	k.VMs = append(k.VMs, vm)
	k.mu.Unlock()
	return vm, nil
}

// NormalExit mirrors sm.ExitInfo for normal VMs.
type NormalExit struct {
	Reason sm.ExitReason
	// Data and Data2 are the guest's a0/a1 at shutdown (self-measured
	// results and a secondary channel, e.g. a checksum).
	Data  uint64
	Data2 uint64
}

// RunNormalVCPU enters a normal guest and services its exits in HS-mode:
// stage-2 faults take the KVM software path, MMIO is emulated through the
// attached device model, SBI calls are handled by the in-hypervisor SBI
// shim. It returns when the guest shuts down or the quantum expires.
func (k *Hypervisor) RunNormalVCPU(h *hart.Hart, vm *VM, vcpuID int) (NormalExit, error) {
	if vm.Confidential {
		return NormalExit{}, fmt.Errorf("hv: use RunCVM for confidential VMs")
	}
	v := vm.vcpus[vcpuID]

	// vmentry: the hypervisor's own world switch (all HS-level, cheap
	// relative to the SM path — no PMP or delegation changes needed).
	h.SetCSR(isa.CSRHgatp, uint64(isa.SatpModeSv39)<<isa.SatpModeShift|
		uint64(vm.vmid)<<isa.HgatpVMIDShift|vm.hgatpRoot>>isa.PageShift)
	k.restoreVCPU(h, v)
	if k.SchedQuantum > 0 {
		k.M.CLINT.SetTimer(h.ID, h.Cycles+k.SchedQuantum)
	}
	if v.TimerDeadline != 0 {
		if dl, ok := k.M.CLINT.NextDeadline(h.ID); !ok || v.TimerDeadline < dl {
			k.M.CLINT.SetTimer(h.ID, v.TimerDeadline)
		}
	}
	h.Advance(38 * h.Cost.RegCopy)
	mst := h.CSR(isa.CSRMstatus)
	base := uint64(1)
	if v.Mode == isa.ModeVU {
		base = 0
	}
	h.SetCSR(isa.CSRMstatus, mst&^isa.MstatusMPP|base<<isa.MstatusMPPShift|isa.MstatusMPV)
	h.SetCSR(isa.CSRMepc, v.PC)
	h.MRet()

	for {
		_, ev := h.Run(k.M.CLINT, ^uint64(0))
		switch ev.Kind {
		case hart.EvHalt: // the parallel engine halted the machine
			k.saveVCPU(h, v, h.PC)
			return NormalExit{Reason: sm.ExitTimer}, nil
		case hart.EvWFI:
			if h.IdleUntilTimer(k.M.CLINT) {
				continue
			}
			k.saveVCPU(h, v, h.PC)
			return NormalExit{Reason: sm.ExitTimer}, nil
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
					if v.TimerDeadline != 0 && h.Cycles >= v.TimerDeadline {
						v.TimerDeadline = 0
						h.SetCSR(isa.CSRHvip, h.CSR(isa.CSRHvip)|1<<isa.IntVSTimer)
						if k.SchedQuantum > 0 {
							k.M.CLINT.SetTimer(h.ID, h.Cycles+k.SchedQuantum)
						} else {
							k.M.CLINT.DisarmTimer(h.ID)
						}
						h.MRet()
						continue
					}
					k.saveVCPU(h, v, h.CSR(isa.CSRMepc))
					vm.countExit("timer")
					return NormalExit{Reason: sm.ExitTimer}, nil
				}
				return NormalExit{Reason: sm.ExitError},
					fmt.Errorf("hv: unexpected M trap %s", isa.CauseName(t.Cause))
			}
		}
	}
}

func (k *Hypervisor) saveVCPU(h *hart.Hart, v *VCPUState, pc uint64) {
	h.Advance(38 * h.Cost.RegCopy)
	v.X = h.X
	v.PC = pc
	if h.Mode.Virtualized() {
		v.Mode = h.Mode
	}
	v.Vsstatus = h.CSR(isa.CSRVsstatus)
	v.Vsepc = h.CSR(isa.CSRVsepc)
	v.Vscause = h.CSR(isa.CSRVscause)
	v.Vstval = h.CSR(isa.CSRVstval)
	v.Vstvec = h.CSR(isa.CSRVstvec)
	v.Vsscratch = h.CSR(isa.CSRVsscratch)
	v.Vsatp = h.CSR(isa.CSRVsatp)
}

func (k *Hypervisor) restoreVCPU(h *hart.Hart, v *VCPUState) {
	h.X = v.X
	h.X[0] = 0
	h.SetCSR(isa.CSRVsstatus, v.Vsstatus)
	h.SetCSR(isa.CSRVsepc, v.Vsepc)
	h.SetCSR(isa.CSRVscause, v.Vscause)
	h.SetCSR(isa.CSRVstval, v.Vstval)
	h.SetCSR(isa.CSRVstvec, v.Vstvec)
	h.SetCSR(isa.CSRVsscratch, v.Vsscratch)
	h.SetCSR(isa.CSRVsatp, v.Vsatp)
}

// handleNormalExit services one HS-mode trap from a normal guest.
func (k *Hypervisor) handleNormalExit(h *hart.Hart, vm *VM, v *VCPUState, t hart.Trap) (NormalExit, bool, error) {
	h.Advance(h.Cost.HVExitHandle)
	switch t.Cause {
	case isa.ExcLoadGuestPageFault, isa.ExcStoreGuestPageFault, isa.ExcInstGuestPageFault:
		gpa := t.Tval2 << 2
		if dev, off, ok := vm.deviceAt(gpa); ok {
			vm.countExit("mmio")
			if err := k.emulateMMIO(h, dev, off, t); err != nil {
				return NormalExit{Reason: sm.ExitError}, true, err
			}
			h.SetCSR(isa.CSRSepc, h.CSR(isa.CSRSepc)+4)
			h.SRet()
			return NormalExit{}, false, nil
		}
		if gpa >= GuestRAMBase {
			vm.countExit("s2fault")
			start := h.Cycles - h.Cost.TrapEntry - h.Cost.HVExitHandle
			if err := k.normalStage2Fault(h, vm, gpa); err != nil {
				return NormalExit{Reason: sm.ExitError}, true, err
			}
			h.SRet() // retry the access
			k.mu.Lock()
			k.S2FaultCycles += h.Cycles - start
			k.S2FaultCount++
			k.mu.Unlock()
			k.s2Hist.Observe(h.Cycles - start)
			k.Tel.Span(h.ID, "hv", "s2fault.normal", start, h.Cycles, telemetry.NoCVM, gpa)
			return NormalExit{}, false, nil
		}
		k.saveVCPU(h, v, h.CSR(isa.CSRSepc))
		return NormalExit{Reason: sm.ExitError}, true,
			fmt.Errorf("hv: guest fault at unmapped GPA %#x", gpa)

	case isa.ExcEcallVS:
		done, err := k.handleGuestSBI(h, vm, v)
		if err != nil {
			return NormalExit{Reason: sm.ExitError}, true, err
		}
		if done {
			vm.countExit("shutdown")
			return NormalExit{Reason: sm.ExitShutdown, Data: v.X[10], Data2: v.X[11]}, true, nil
		}
		return NormalExit{}, false, nil

	case isa.CauseInterruptBit | isa.IntSTimer:
		k.saveVCPU(h, v, h.CSR(isa.CSRSepc))
		vm.countExit("timer")
		return NormalExit{Reason: sm.ExitTimer}, true, nil
	}
	k.saveVCPU(h, v, h.CSR(isa.CSRSepc))
	return NormalExit{Reason: sm.ExitError}, true,
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
	val := dev.MMIORead(off, in.MemBytes())
	switch in.Op {
	case isa.OpLB:
		val = uint64(int64(int8(val)))
	case isa.OpLH:
		val = uint64(int64(int16(val)))
	case isa.OpLW:
		val = uint64(int64(int32(val)))
	case isa.OpLBU:
		val &= 0xFF
	case isa.OpLHU:
		val &= 0xFFFF
	case isa.OpLWU:
		val &= 0xFFFFFFFF
	}
	h.SetReg(in.Rd, val)
	return nil
}

// handleGuestSBI is the hypervisor's SBI shim for normal guests.
// done=true means the guest requested shutdown.
func (k *Hypervisor) handleGuestSBI(h *hart.Hart, vm *VM, v *VCPUState) (bool, error) {
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
		v.TimerDeadline = a0
		h.SetCSR(isa.CSRHvip, h.CSR(isa.CSRHvip)&^uint64(1<<isa.IntVSTimer))
		if dl, ok := k.M.CLINT.NextDeadline(h.ID); !ok || a0 < dl {
			k.M.CLINT.SetTimer(h.ID, a0)
		}
		h.SetReg(10, 0)
		resume()
		return false, nil
	case sm.EIDReset:
		k.saveVCPU(h, v, h.CSR(isa.CSRSepc)+4)
		return true, nil
	}
	h.SetReg(10, ^uint64(1)) // SBI_ERR_NOT_SUPPORTED
	resume()
	return false, nil
}
