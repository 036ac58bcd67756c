package hv

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/sm"
)

// TestMMIOExitRoundTripAllocs pins the host cost of the E1 path: once
// warm, one MMIO exit round trip — the SM resumes the vCPU from the
// previous exit (Check-after-Load), runs the guest to its next MMIO load,
// publishes the exit, and the hypervisor emulates the device and answers
// through the shared vCPU — allocates nothing.
func TestMMIOExitRoundTripAllocs(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	const devBase = 0x1000_0000
	p := asm.New(GuestRAMBase)
	p.LI(asm.T0, devBase)
	p.Label("loop")
	p.LD(asm.A0, asm.T0, 0)
	p.J("loop")
	vm, err := k.CreateCVM(h, "exits", p.MustAssemble(), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	k.AttachDevice(vm, &fakeDevice{base: devBase, val: 7})
	roundTrip := func() {
		info, err := k.SM.RunVCPU(h, vm.CVMID, 0)
		if err != nil || info.Reason != sm.ExitMMIORead {
			t.Fatalf("exit = %v, %v; want mmio-read", info.Reason, err)
		}
		vm.countExit("mmio")
		if err := k.emulateCVMMMIO(h, vm, 0, info); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("MMIO exit round trip allocates %v objects, want 0", allocs)
	}
}
