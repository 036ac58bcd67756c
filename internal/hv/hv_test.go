package hv

import (
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
)

const (
	ramSize  = 256 << 20
	normBase = platform.RAMBase + 0x0100_0000
	normSize = 0x0700_0000 // 112 MiB of hypervisor heap
)

func newStack(t testing.TB, cfg sm.Config) (*platform.Machine, *sm.SM, *Hypervisor, *hart.Hart) {
	t.Helper()
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h := m.Harts[0]
	h.Mode = isa.ModeS
	if err := k.RegisterSecurePool(h, 16<<20); err != nil {
		t.Fatal(err)
	}
	return m, monitor, k, h
}

func guestProgram(build func(p *asm.Program)) []byte {
	p := asm.New(GuestRAMBase)
	build(p)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// fakeDevice is a trivial MMIO device: one data register at offset 0 and
// a write log.
type fakeDevice struct {
	base   uint64
	val    uint64
	writes []uint64
}

func (d *fakeDevice) GPARange() (uint64, uint64)        { return d.base, 0x1000 }
func (d *fakeDevice) MMIORead(off uint64, _ int) uint64 { return d.val + off }
func (d *fakeDevice) MMIOWrite(off uint64, w int, v uint64) {
	d.writes = append(d.writes, v)
}

func TestNormalVMComputeAndShutdown(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.S0, 11)
		p.LI(asm.S1, 13)
		p.MUL(asm.S2, asm.S0, asm.S1)
	})
	vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := k.RunVCPU(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exit.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v", exit.Reason)
	}
	if vm.vcpus[0].X[asm.S2] != 143 {
		t.Errorf("s2 = %d", vm.vcpus[0].X[asm.S2])
	}
}

func TestNormalVMDemandPaging(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(GuestRAMBase)+0x10_0000)
		p.LI(asm.T1, 32)
		p.Label("touch")
		p.SD(asm.T1, asm.T0, 0)
		p.LI(asm.T2, isa.PageSize)
		p.ADD(asm.T0, asm.T0, asm.T2)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "touch")
	})
	vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if exit, err := k.RunVCPU(h, vm, 0); err != nil || exit.Reason != sm.ExitShutdown {
		t.Fatalf("exit=%v err=%v", exit, err)
	}
	if vm.Exits["s2fault"] < 32 {
		t.Errorf("s2fault exits = %d, want >= 32", vm.Exits["s2fault"])
	}
}

func TestNormalVMMMIOEmulation(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S3, asm.T0, 0x10) // read reg: val+0x10
		p.LI(asm.T1, 0xBEEF)
		p.SD(asm.T1, asm.T0, 0) // write log
	})
	vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	dev := &fakeDevice{base: 0x1000_0000, val: 0x100}
	k.AttachDevice(vm, dev)
	if exit, err := k.RunVCPU(h, vm, 0); err != nil || exit.Reason != sm.ExitShutdown {
		t.Fatalf("exit=%v err=%v", exit, err)
	}
	if vm.vcpus[0].X[asm.S3] != 0x110 {
		t.Errorf("mmio read = %#x", vm.vcpus[0].X[asm.S3])
	}
	if len(dev.writes) != 1 || dev.writes[0] != 0xBEEF {
		t.Errorf("mmio writes = %v", dev.writes)
	}
	if vm.Exits["mmio"] != 2 {
		t.Errorf("mmio exits = %d", vm.Exits["mmio"])
	}
}

// An MMIO load reaches its register narrowed and extended by the
// trapped op, identically for a normal VM (the hypervisor completes the
// load) and a CVM (the SM applies the answer on resume).
func TestMMIOLoadExtensionBothKinds(t *testing.T) {
	const raw = 0x0123_4567_89AB_CDEF - 0x10 // the device adds the offset
	type load func(p *asm.Program, rd, rs1 asm.Reg, off int64) *asm.Program
	for _, tc := range []struct {
		name string
		op   load
		want uint64
	}{
		{"lb", (*asm.Program).LB, 0xFFFF_FFFF_FFFF_FFEF},
		{"lbu", (*asm.Program).LBU, 0xEF},
		{"lh", (*asm.Program).LH, 0xFFFF_FFFF_FFFF_CDEF},
		{"lhu", (*asm.Program).LHU, 0xCDEF},
		{"lw", (*asm.Program).LW, 0xFFFF_FFFF_89AB_CDEF},
		{"lwu", (*asm.Program).LWU, 0x89AB_CDEF},
		{"ld", (*asm.Program).LD, 0x0123_4567_89AB_CDEF},
	} {
		img := guestProgram(func(p *asm.Program) {
			p.LI(asm.T0, 0x1000_0000)
			tc.op(p, asm.A0, asm.T0, 0x10)
		})
		for _, confidential := range []bool{false, true} {
			_, _, k, h := newStack(t, sm.Config{})
			var vm *VM
			var err error
			if confidential {
				vm, err = k.CreateCVM(h, tc.name, img, GuestRAMBase)
			} else {
				vm, err = k.CreateNormalVM(tc.name, img, GuestRAMBase)
			}
			if err != nil {
				t.Fatal(err)
			}
			k.AttachDevice(vm, &fakeDevice{base: 0x1000_0000, val: raw})
			info, err := k.RunVCPU(h, vm, 0)
			if err != nil || info.Reason != sm.ExitShutdown {
				t.Fatalf("%s confidential=%v: exit=%v err=%v", tc.name, confidential, info.Reason, err)
			}
			if info.Data != tc.want {
				t.Errorf("%s confidential=%v: a0 = %#x, want %#x", tc.name, confidential, info.Data, tc.want)
			}
		}
	}
}

// RunVCPU refuses a vCPU index the VM does not have, for either kind.
func TestRunVCPUUnknownVCPU(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {})
	nvm, err := k.CreateNormalVM("n", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	cvm, err := k.CreateCVM(h, "c", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []*VM{nvm, cvm} {
		for _, id := range []int{-1, 1} {
			if _, err := k.RunVCPU(h, vm, id); err == nil {
				t.Errorf("%s: RunVCPU(vcpu %d) = nil error", vm.Name, id)
			}
		}
	}
}

func TestNormalVMQuantumAndResume(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	k.SchedQuantum = 10000
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.S4, 0)
		p.LI(asm.T1, 30000)
		p.Label("spin")
		p.ADDI(asm.S4, asm.S4, 1)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	})
	vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for {
		exit, err := k.RunVCPU(h, vm, 0)
		if err != nil {
			t.Fatal(err)
		}
		if exit.Reason == sm.ExitTimer {
			rounds++
			if rounds > 1000 {
				t.Fatal("never finished")
			}
			continue
		}
		if exit.Reason != sm.ExitShutdown {
			t.Fatalf("reason = %v", exit.Reason)
		}
		break
	}
	if rounds < 2 {
		t.Errorf("quantum rounds = %d", rounds)
	}
	if vm.vcpus[0].X[asm.S4] != 30000 {
		t.Errorf("s4 = %d (state lost)", vm.vcpus[0].X[asm.S4])
	}
}

func TestNormalVMSBIPutchar(t *testing.T) {
	m, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.A0, 'N')
		p.LI(asm.A7, sm.EIDPutchar)
		p.ECALL()
	})
	vm, _ := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if _, err := k.RunVCPU(h, vm, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.UART.Output(), "N") {
		t.Errorf("uart = %q", m.UART.Output())
	}
}

func TestCVMThroughHypervisor(t *testing.T) {
	_, monitor, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.S0, 21)
		p.SLLI(asm.S0, asm.S0, 1)
	})
	vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	info, err := k.RunCVM(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	if _, err := monitor.Measurement(vm.CVMID); err != nil {
		t.Errorf("measurement: %v", err)
	}
}

func TestCVMMMIOThroughDeviceModel(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S3, asm.T0, 0x20)
		p.LI(asm.T1, 0xCAFE)
		p.SD(asm.T1, asm.T0, 0)
	})
	vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	dev := &fakeDevice{base: 0x1000_0000, val: 0x40}
	k.AttachDevice(vm, dev)
	info, err := k.RunCVM(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	if len(dev.writes) != 1 || dev.writes[0] != 0xCAFE {
		t.Errorf("writes = %v", dev.writes)
	}
	if vm.Exits["mmio"] != 2 {
		t.Errorf("mmio exits = %d", vm.Exits["mmio"])
	}
}

func TestCVMSharedWindowFault(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		// Write then read back through the shared window.
		p.LI(asm.T0, int64(sm.SharedBase))
		p.LI(asm.T1, 0x7777)
		p.SD(asm.T1, asm.T0, 0)
		p.LD(asm.S5, asm.T0, 0)
	})
	vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetupSharedWindow(h, vm); err != nil {
		t.Fatal(err)
	}
	info, err := k.RunCVM(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	if vm.Exits["sharedfault"] == 0 {
		t.Error("no shared-window fault recorded")
	}
	// The hypervisor can see the value the guest wrote — that's the
	// shared window's purpose.
	pa, ok := vm.SharedPA(sm.SharedBase)
	if !ok {
		t.Fatal("shared GPA not mapped")
	}
	if v, _ := k.M.RAM.ReadUint64(pa); v != 0x7777 {
		t.Errorf("shared value = %#x", v)
	}
}

func TestCVMPoolExpansionThroughHV(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h := m.Harts[0]
	h.Mode = isa.ModeS
	// Tiny initial pool: 512 KiB = 2 blocks.
	if err := k.RegisterSecurePool(h, 512<<10); err != nil {
		t.Fatal(err)
	}
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(GuestRAMBase)+0x10_0000)
		p.LI(asm.T1, 400) // 400 pages >> 2 blocks
		p.Label("touch")
		p.SD(asm.T1, asm.T0, 0)
		p.LI(asm.T2, isa.PageSize)
		p.ADD(asm.T0, asm.T0, asm.T2)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "touch")
	})
	vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	info, err := k.RunCVM(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	if vm.Exits["poolempty"] == 0 {
		t.Error("no pool expansion recorded")
	}
}

func TestConcurrentCVMsExceedRegionLimit(t *testing.T) {
	// ZION's page-granular isolation supports far more concurrent CVMs
	// than the ~13 region-based designs allow: run 20 at once.
	_, _, k, h := newStack(t, sm.Config{})
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.S0, 5)
		p.LI(asm.S1, 5)
		p.ADD(asm.S2, asm.S0, asm.S1)
	})
	var vms []*VM
	for i := 0; i < 20; i++ {
		vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
		if err != nil {
			t.Fatalf("CVM %d: %v", i, err)
		}
		vms = append(vms, vm)
	}
	for i, vm := range vms {
		info, err := k.RunCVM(h, vm, 0)
		if err != nil || info.Reason != sm.ExitShutdown {
			t.Fatalf("CVM %d: %v %v", i, info.Reason, err)
		}
	}
}

func TestFrameAllocBounds(t *testing.T) {
	a := NewFrameAlloc(0x1000, 0x3000)
	p1, err := a.Page()
	if err != nil || p1 != 0x1000 {
		t.Fatalf("p1 = %#x, %v", p1, err)
	}
	if _, err := a.Contig(0x2000, 0x2000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Page(); err == nil {
		t.Error("exhausted allocator should fail")
	}
	if a.Remaining() != 0 {
		t.Errorf("remaining = %d", a.Remaining())
	}
}
