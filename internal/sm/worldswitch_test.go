package sm

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// enterCVM installs its constants with Hart.LoadCSRs, which skips the
// WARL rules; that is sound only while every constant is one storeCSR
// stores unchanged. hgatp's root comes from the CVM: Sv39 mode, the VMID
// and a page-aligned table address.
func TestCVMEntryCSRsAreWARLFixedPoints(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))
	c := f.s.life.cvms[id]
	vals := cvmEntryValues(c)
	for i, a := range cvmEntryRegs {
		f.h.SetCSR(a, vals[i])
		if got := f.h.CSR(a); got != vals[i] {
			t.Errorf("CSR %#x: SetCSR(%#x) stores %#x", a, vals[i], got)
		}
	}
}

// The hypervisor's CSR context survives a confidential run exactly: what
// the HS-mode software had in every saved register, its VS-level state
// included, before RunVCPU is what it finds after the exit, and it
// resumes at its own sepc.
func TestWorldSwitchRestoresHypervisorCSRs(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.A0, asm.T0, 0) // MMIO exit
	}))
	before := map[uint16]uint64{
		isa.CSRMedeleg:  1 << isa.ExcBreakpoint,
		isa.CSRMideleg:  1 << isa.IntSTimer,
		isa.CSRHedeleg:  1 << isa.ExcEcallU,
		isa.CSRHideleg:  1 << isa.IntVSTimer,
		isa.CSRHgatp:    0,
		isa.CSRHstatus:  isa.HstatusSPV,
		isa.CSRStvec:    stagingPA + 0x3000,
		isa.CSRSscratch: 0x5c5c,
		isa.CSRSatp:     0,
		isa.CSRSepc:     stagingPA + 0x4000,
		isa.CSRMie:      1 << isa.IntSTimer,
		// The hypervisor's VS-level state, which the CVM's own replaces
		// for the run.
		isa.CSRVsstatus:  isa.MstatusSPIE,
		isa.CSRVsepc:     0x8000_1234,
		isa.CSRVscause:   5,
		isa.CSRVstval:    0x77,
		isa.CSRVstvec:    0x8000_0100,
		isa.CSRVsscratch: 0x9a9a,
		isa.CSRVsatp:     0,
		isa.CSRHie:       1 << isa.IntVSTimer,
		isa.CSRHvip:      1 << isa.IntVSTimer,
	}
	for a, v := range before {
		f.h.SetCSR(a, v)
	}
	if len(before) != len(hvRegs) {
		t.Fatalf("test covers %d registers, the saved context has %d", len(before), len(hvRegs))
	}
	if info := f.run(); info.Reason != ExitMMIORead {
		t.Fatalf("exit = %v, want mmio-read", info.Reason)
	}
	for a, v := range before {
		if got := f.h.CSR(a); got != v {
			t.Errorf("CSR %#x = %#x after the exit, want %#x", a, got, v)
		}
	}
	if f.h.Mode != isa.ModeS || f.h.PC != before[isa.CSRSepc] {
		t.Errorf("hypervisor resumes in %v at %#x, want HS at %#x", f.h.Mode, f.h.PC, before[isa.CSRSepc])
	}
}
