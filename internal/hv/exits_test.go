package hv

import (
	"maps"
	"testing"

	"zion/internal/asm"
	"zion/internal/sm"
)

// exitCountDev is where the exit-count guests find their MMIO device;
// exitCountHole is an MMIO-window GPA no device covers.
const (
	exitCountDev  = 0x1000_0000
	exitCountHole = 0x2000_0000
)

// mmioLoads emits n loads from the device, then one load or store per
// extra address.
func mmioLoads(p *asm.Program, n int, extra ...int64) {
	p.LI(asm.T0, exitCountDev)
	for i := 0; i < n; i++ {
		p.LD(asm.S3, asm.T0, 0)
	}
	for _, a := range extra {
		p.LI(asm.T1, a)
		p.SD(asm.S3, asm.T1, 0)
	}
}

// TestExitCountsPerRun: a run folds its exit tallies into vm.Exits once,
// when it returns, on every return path. The counts are exact per reason
// for both VM kinds, accumulate over runs, and a run that fails after N
// MMIO exits still counts them.
func TestExitCountsPerRun(t *testing.T) {
	const n = 5
	want := func(t *testing.T, vm *VM, exits map[string]uint64) {
		t.Helper()
		if !maps.Equal(vm.Exits, exits) {
			t.Errorf("exits = %v, want %v", vm.Exits, exits)
		}
	}

	t.Run("cvm", func(t *testing.T) {
		_, _, k, h := newStack(t, sm.Config{})
		img := guestProgram(func(p *asm.Program) { mmioLoads(p, n, int64(sm.SharedBase)) })
		vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		k.AttachDevice(vm, &fakeDevice{base: exitCountDev})
		if err := k.SetupSharedWindow(h, vm); err != nil {
			t.Fatal(err)
		}
		if info, err := k.RunCVM(h, vm, 0); err != nil || info.Reason != sm.ExitShutdown {
			t.Fatalf("run = %v, %v; want shutdown", info.Reason, err)
		}
		want(t, vm, map[string]uint64{"mmio": n, "sharedfault": 1, "shutdown": 1})
	})

	t.Run("cvm-quantum", func(t *testing.T) {
		_, _, k, h := newStack(t, sm.Config{SchedQuantum: 10_000})
		vm, err := k.CreateCVM(h, "cvm", guestProgram(func(p *asm.Program) {
			p.Label("spin")
			p.J("spin")
		}), GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		for run := uint64(1); run <= 3; run++ {
			if info, err := k.RunCVM(h, vm, 0); err != nil || info.Reason != sm.ExitTimer {
				t.Fatalf("run %d = %v, %v; want timer", run, info.Reason, err)
			}
			want(t, vm, map[string]uint64{"timer": run})
		}
	})

	t.Run("cvm-error", func(t *testing.T) {
		_, _, k, h := newStack(t, sm.Config{})
		// The (n+1)th MMIO exit hits no device: the hypervisor cannot
		// emulate it and the run fails, with all n+1 exits counted.
		img := guestProgram(func(p *asm.Program) { mmioLoads(p, n, exitCountHole) })
		vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		k.AttachDevice(vm, &fakeDevice{base: exitCountDev})
		if _, err := k.RunCVM(h, vm, 0); err == nil {
			t.Fatal("run at an unemulated GPA succeeded")
		}
		want(t, vm, map[string]uint64{"mmio": n + 1})
	})

	t.Run("normal", func(t *testing.T) {
		_, _, k, h := newStack(t, sm.Config{})
		img := guestProgram(func(p *asm.Program) { mmioLoads(p, n, int64(GuestRAMBase)+0x10_0000) })
		vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		k.AttachDevice(vm, &fakeDevice{base: exitCountDev})
		if info, err := k.RunVCPU(h, vm, 0); err != nil || info.Reason != sm.ExitShutdown {
			t.Fatalf("run = %v, %v; want shutdown", info.Reason, err)
		}
		want(t, vm, map[string]uint64{"mmio": n, "s2fault": 1, "shutdown": 1})
	})

	t.Run("normal-error", func(t *testing.T) {
		_, _, k, h := newStack(t, sm.Config{})
		// After n MMIO exits the guest faults below its RAM where no
		// device sits: the run fails with the n exits counted.
		img := guestProgram(func(p *asm.Program) { mmioLoads(p, n, exitCountHole) })
		vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
		if err != nil {
			t.Fatal(err)
		}
		k.AttachDevice(vm, &fakeDevice{base: exitCountDev})
		if _, err := k.RunVCPU(h, vm, 0); err == nil {
			t.Fatal("run at an unmapped GPA succeeded")
		}
		want(t, vm, map[string]uint64{"mmio": n})
	})
}
