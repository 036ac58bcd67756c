package hv

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/sm"
)

// newMMIOExitRoundTrip builds a CVM that loads from a stub MMIO device in
// a loop and returns one warm round trip of the E1 path: the SM resumes
// the vCPU from the previous exit (Check-after-Load), runs the guest to
// its next MMIO load, publishes the exit, and the hypervisor emulates the
// device and answers through the shared vCPU.
func newMMIOExitRoundTrip(tb testing.TB) func() {
	_, _, k, h := newStack(tb, sm.Config{})
	const devBase = 0x1000_0000
	p := asm.New(GuestRAMBase)
	p.LI(asm.T0, devBase)
	p.Label("loop")
	p.LD(asm.A0, asm.T0, 0)
	p.J("loop")
	vm, err := k.CreateCVM(h, "exits", p.MustAssemble(), GuestRAMBase)
	if err != nil {
		tb.Fatal(err)
	}
	k.AttachDevice(vm, &fakeDevice{base: devBase, val: 7})
	roundTrip := func() {
		info, err := k.SM.RunVCPU(h, vm.CVMID, 0)
		if err != nil || info.Reason != sm.ExitMMIORead {
			tb.Fatalf("exit = %v, %v; want mmio-read", info.Reason, err)
		}
		vm.countExit("mmio")
		if err := k.emulateCVMMMIO(h, vm, 0, info); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	return roundTrip
}

// TestMMIOExitRoundTripAllocs pins the host cost of the E1 path: once
// warm, one MMIO exit round trip allocates nothing.
func TestMMIOExitRoundTripAllocs(t *testing.T) {
	roundTrip := newMMIOExitRoundTrip(t)
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("MMIO exit round trip allocates %v objects, want 0", allocs)
	}
}

// BenchmarkMMIOExitRoundTrip times the same warm round trip: the world
// switch in and out of the CVM, the guest's MMIO load and the
// hypervisor's emulation.
func BenchmarkMMIOExitRoundTrip(b *testing.B) {
	roundTrip := newMMIOExitRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestTimerExitRoundTripAllocs pins the quantum-expiry path for both VM
// kinds: once warm, one run that ends at the quantum (the guest-timer arm
// at entry, the machine-timer trap, the exit) and its re-entry allocate
// nothing.
func TestTimerExitRoundTripAllocs(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{SchedQuantum: 10_000})
	k.SchedQuantum = 10_000
	p := asm.New(GuestRAMBase)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, 1)
	p.J("spin")
	img := p.MustAssemble()
	cvm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := k.CreateNormalVM("normal", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []*VM{cvm, nvm} {
		roundTrip := func() {
			if exit, err := k.RunVCPU(h, vm, 0); err != nil || exit.Reason != sm.ExitTimer {
				t.Fatalf("%s: exit = %v, %v; want timer", vm.Name, exit.Reason, err)
			}
		}
		for i := 0; i < 4; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("%s: quantum expiry round trip allocates %v objects, want 0", vm.Name, allocs)
		}
	}
}
