package sm

import (
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

func TestSuspendResume(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 10_000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T1, 100_000)
		p.Label("spin")
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	// Run one quantum, then suspend.
	if info := f.run(); info.Reason != ExitTimer {
		t.Fatalf("first run: %v", info.Reason)
	}
	if _, err := f.s.HVCall(f.h, FnSuspend, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	// Running while suspended is refused.
	if _, err := f.s.RunVCPU(f.h, f.id, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("run while suspended: %v", err)
	}
	// Double suspend is refused.
	if _, err := f.s.HVCall(f.h, FnSuspend, uint64(f.id)); !errors.Is(err, ErrBadState) {
		t.Fatalf("double suspend: %v", err)
	}
	// Resume and finish; state survived intact.
	if _, err := f.s.HVCall(f.h, FnResume, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	for {
		info := f.run()
		if info.Reason == ExitShutdown {
			break
		}
		if info.Reason != ExitTimer {
			t.Fatalf("reason = %v", info.Reason)
		}
	}
	// Resume of a runnable CVM is refused.
	if _, err := f.s.HVCall(f.h, FnResume, uint64(f.id)); !errors.Is(err, ErrBadState) {
		t.Fatalf("resume runnable: %v", err)
	}
}

func TestGuestRelinquishPage(t *testing.T) {
	f := newFixture(t, Config{})
	target := int64(PrivateBase) + 0x20_0000
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		// Touch a page (demand-mapped), store a secret, then donate it.
		p.LI(asm.T0, target)
		p.LI(asm.T1, 0x5EC12E7)
		p.SD(asm.T1, asm.T0, 0)
		p.MV(asm.A0, asm.T0)
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S2, asm.A0) // 0 on success
		// Touch it again: demand paging must hand back a *zeroed* page.
		p.LI(asm.T0, target)
		p.LD(asm.S3, asm.T0, 0)
	}))
	before, _ := f.s.OwnedPages(f.id)
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S2] != 0 {
		t.Fatal("relinquish SBI call failed")
	}
	if got := c.vcpus[0].sec.X[asm.S3]; got != 0 {
		t.Errorf("re-faulted page leaked old contents: %#x", got)
	}
	after, _ := f.s.OwnedPages(f.id)
	if after > before+8 {
		t.Errorf("ownership grew unexpectedly: %d -> %d", before, after)
	}
}

func TestRelinquishValidation(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		// Unmapped GPA: error 1 in a0.
		p.LI(asm.A0, int64(PrivateBase)+0x3F_0000)
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S2, asm.A0)
		// Shared-window GPA: also refused.
		p.LI(asm.A0, int64(SharedBase))
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S3, asm.A0)
		// Misaligned: refused.
		p.LI(asm.A0, int64(PrivateBase)+0x20_0008)
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S4, asm.A0)
		// The top of guest-physical space (2^41): refused, not truncated.
		p.LI(asm.A0, 1<<41)
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S5, asm.A0)
		// A mapped private GPA with bit 41 set: truncating it to 41 bits
		// would name the code page this program runs from. Refused.
		p.LI(asm.A0, int64(PrivateBase|1<<41))
		p.LI(asm.A6, ZionFnRelinquish)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S6, asm.A0)
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	c := f.s.life.cvms[f.id]
	v := c.vcpus[0]
	for _, r := range []asm.Reg{asm.S2, asm.S3, asm.S4, asm.S5, asm.S6} {
		if v.sec.X[r] != 1 {
			t.Errorf("x%d = %d, want SBI error 1", r, v.sec.X[r])
		}
	}
	// The page the bit-41 alias would truncate to stays mapped and owned.
	pte, level, err := c.pt.Lookup(c.hgatpRoot, PrivateBase, true)
	if err != nil || level != 0 {
		t.Fatalf("code page lookup: level %d, err %v", level, err)
	}
	if pa := (pte >> isa.PTEPPNShift) << isa.PageShift; !c.owned.has(pa) {
		t.Errorf("code page frame %#x no longer owned", pa)
	}
	if found := f.s.Audit(); len(found) != 0 {
		t.Errorf("audit findings after refused relinquish: %v", found)
	}
}
