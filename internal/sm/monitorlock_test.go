package sm

import (
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
)

// TestRunVCPUReleasesMonitorLock: the run loop hands RunVCPU's exit half
// the monitor lock it took for the trap that ended the run, so every way
// out of RunVCPU, the early refusals included, must leave s.mu free.
func TestRunVCPUReleasesMonitorLock(t *testing.T) {
	ramEnd := uint64(platform.RAMBase) + ramSize
	mmio := func(store bool) *asm.Program {
		return shutdownProgram(func(p *asm.Program) {
			p.LI(asm.T0, 0x1000_0000)
			if store {
				p.SD(asm.S4, asm.T0, 0)
			} else {
				p.LD(asm.S4, asm.T0, 0)
			}
		})
	}
	cases := []struct {
		name    string
		cfg     Config
		pool    uint64
		prog    *asm.Program
		prepare func(f *fixture) // runs after the build, before the checked run
		want    ExitReason
		fatal   bool // the run quarantines the CVM with a CodeMemory error
	}{
		{name: "mmio-read", prog: mmio(false), want: ExitMMIORead},
		{name: "mmio-write", prog: mmio(true), want: ExitMMIOWrite},
		{name: "quantum", cfg: Config{SchedQuantum: 5_000}, prog: shutdownProgram(func(p *asm.Program) {
			p.Label("spin")
			p.J("spin")
		}), want: ExitTimer},
		{name: "wfi-yield", prog: shutdownProgram(func(p *asm.Program) { p.WFI() }), want: ExitTimer},
		{name: "shared-fault", prog: shutdownProgram(func(p *asm.Program) {
			p.LI(asm.T0, int64(SharedBase))
			p.LD(asm.S4, asm.T0, 0)
		}), want: ExitSharedFault},
		{name: "pool-empty", pool: drainPool, prog: touchProgram(drainTouches, -1), want: ExitPoolEmpty},
		{name: "shutdown", prog: shutdownProgram(func(*asm.Program) {}), want: ExitShutdown},
		{name: "hs-trap", cfg: Config{StepHook: func(h *hart.Hart, _ int) {
			// Leave ebreak delegated to HS but not on to VS: the trap then
			// targets HS, which nothing may reach in CVM mode.
			h.SetCSR(isa.CSRHedeleg, 0)
		}}, prog: shutdownProgram(func(p *asm.Program) { p.EBREAK() }), want: ExitError},
		{name: "fatal-publish", prog: mmio(false), want: ExitError, fatal: true,
			prepare: func(f *fixture) { f.s.life.cvms[f.id].vcpus[0].sharedPA = ramEnd - 8 }},
		{name: "fatal-resume", prog: mmio(false), want: ExitError, fatal: true,
			prepare: func(f *fixture) {
				if info := f.run(); info.Reason != ExitMMIORead {
					f.t.Fatalf("first exit = %v, want mmio-read", info.Reason)
				}
				f.s.life.cvms[f.id].vcpus[0].sharedPA = ramEnd
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := tc.pool
			if pool == 0 {
				pool = poolSize
			}
			f := newFixturePool(t, tc.cfg, pool)
			f.buildCVM(tc.prog)
			if tc.prepare != nil {
				tc.prepare(f)
			}
			info, err := f.s.RunVCPU(f.h, f.id, 0)
			if info.Reason != tc.want {
				t.Errorf("exit = %v, want %v", info.Reason, tc.want)
			}
			if tc.fatal {
				wantCode(t, err, CodeMemory)
				if _, ok := f.s.Quarantined(f.id); !ok {
					t.Error("CVM not quarantined")
				}
			} else if err != nil {
				t.Errorf("err = %v", err)
			}
			wantMonitorUnlocked(t, f.s)
		})
	}

	// Early refusals: the entry half returns before any world switch.
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(*asm.Program) {}))
	unfinalized, err := f.s.HVCall(f.h, FnCreateCVM)
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(name string, cvmID, vcpuID int, want error) {
		t.Helper()
		if _, err := f.s.RunVCPU(f.h, cvmID, vcpuID); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		wantMonitorUnlocked(t, f.s)
	}
	refuse("unknown CVM", id+100, 0, ErrNotFound)
	refuse("bad state", int(unfinalized), 0, ErrBadState)
	refuse("bad vCPU", id, 1, ErrNotFound)
	v := f.s.life.cvms[id].vcpus[0]
	v.on = f.h // the vCPU runs on a hart already
	refuse("running vCPU", id, 0, ErrBadState)
	v.on = nil
	f.s.quarantineCompartment(f.h, CompSwitch, "test", errors.New("hung switch"))
	refuse("switch quarantined", id, 0, ErrCompartment)
}

// wantMonitorUnlocked fails the test when s.mu is held.
func wantMonitorUnlocked(t *testing.T, s *SM) {
	t.Helper()
	if !s.mu.TryLock() {
		t.Fatal("RunVCPU returned with the monitor lock held")
	}
	s.mu.Unlock()
}
