package sm

import (
	"bytes"
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
)

// Test fixture layout (256 MiB RAM at 0x8000_0000):
//
//	+0x0000_0000  hypervisor/normal memory (staging, shared pages)
//	+0x0800_0000  secure pool (16 MiB, NAPOT-aligned)
const (
	ramSize   = 256 << 20
	poolBase  = platform.RAMBase + 0x0800_0000
	poolSize  = 16 << 20
	stagingPA = platform.RAMBase + 0x0010_0000
	sharedPA  = platform.RAMBase + 0x0020_0000
)

type fixture struct {
	m  *platform.Machine
	s  *SM
	h  *hart.Hart
	t  testing.TB
	id int // CVM id after build
	// poolBytes is the size of every pool region registered so far.
	poolBytes uint64
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	return newFixturePool(t, cfg, poolSize)
}

// newFixturePool is newFixture with a secure pool of size bytes at
// poolBase.
func newFixturePool(t testing.TB, cfg Config, size uint64) *fixture {
	t.Helper()
	m := platform.New(1, ramSize)
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{m: m, s: s, h: m.Harts[0], t: t, poolBytes: size}
	f.h.Mode = isa.ModeS // the hypervisor runs in HS-mode
	if _, err := s.HVCall(f.h, FnRegisterPool, poolBase, size); err != nil {
		t.Fatal(err)
	}
	return f
}

// buildCVM stages the program image in normal memory, loads it into a new
// CVM at PrivateBase, finalizes, and creates vCPU 0.
func (f *fixture) buildCVM(p *asm.Program) int {
	f.t.Helper()
	code := p.MustAssemble()
	if err := f.m.RAM.Write(stagingPA, code); err != nil {
		f.t.Fatal(err)
	}
	id64, err := f.s.HVCall(f.h, FnCreateCVM)
	if err != nil {
		f.t.Fatal(err)
	}
	id := int(id64)
	npages := (len(code) + isa.PageSize - 1) / isa.PageSize
	for i := 0; i < npages; i++ {
		off := uint64(i) * isa.PageSize
		if _, err := f.s.HVCall(f.h, FnLoadPage, uint64(id), PrivateBase+off, stagingPA+off); err != nil {
			f.t.Fatal(err)
		}
	}
	if _, err := f.s.HVCall(f.h, FnFinalize, uint64(id), PrivateBase); err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnCreateVCPU, uint64(id), sharedPA); err != nil {
		f.t.Fatal(err)
	}
	f.id = id
	return id
}

func (f *fixture) run() ExitInfo {
	f.t.Helper()
	info, err := f.s.RunVCPU(f.h, f.id, 0)
	if err != nil {
		f.t.Fatalf("RunVCPU: %v", err)
	}
	return info
}

// shutdownProgram computes and then requests shutdown via SBI SRST.
func shutdownProgram(build func(p *asm.Program)) *asm.Program {
	p := asm.New(PrivateBase)
	build(p)
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	return p
}

func TestCVMLifecycleAndCompute(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.S0, 6)
		p.LI(asm.S1, 7)
		p.MUL(asm.S2, asm.S0, asm.S1)
	}))
	info := f.run()
	if info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	// s2 survived in the secure vCPU.
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S2] != 42 {
		t.Errorf("s2 = %d, want 42", c.vcpus[0].sec.X[asm.S2])
	}
	if f.s.Stats.Entries != 1 || f.s.Stats.Exits != 1 {
		t.Errorf("stats = %+v", f.s.Stats)
	}
}

func TestDemandPagingThreeStages(t *testing.T) {
	f := newFixture(t, Config{})
	// Touch 80 fresh pages: first touch of each faults; one block (64
	// pages) won't suffice, so stage 2 triggers at least twice.
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.LI(asm.T1, 80)
		p.Label("touch")
		p.SD(asm.T1, asm.T0, 0)
		p.LI(asm.T2, isa.PageSize)
		p.ADD(asm.T0, asm.T0, asm.T2)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "touch")
	}))
	info := f.run()
	if info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	st := f.s.Stats
	if st.FaultStage[StageCache] == 0 {
		t.Error("no stage-1 (page cache) allocations")
	}
	if st.FaultStage[StageBlock] < 2 {
		t.Errorf("stage-2 allocations = %d, want >= 2", st.FaultStage[StageBlock])
	}
	if st.FaultStage[StageCache] <= st.FaultStage[StageBlock] {
		t.Error("most faults should be satisfied by the page cache")
	}
}

func TestPoolExhaustionAndExpansion(t *testing.T) {
	f := newFixture(t, Config{})
	// Drain the pool: the image's table frames plus guest touches of more
	// pages than 16 MiB can hold trigger ExitPoolEmpty.
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.LI(asm.T1, int64(poolSize/isa.PageSize)+64) // more pages than the pool holds
		p.Label("touch")
		p.SD(asm.T1, asm.T0, 0)
		p.LI(asm.T2, isa.PageSize)
		p.ADD(asm.T0, asm.T0, asm.T2)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "touch")
	}))
	expansions := 0
	for {
		info := f.run()
		switch info.Reason {
		case ExitPoolEmpty:
			expansions++
			if expansions > 8 {
				t.Fatal("expansion loop did not converge")
			}
			// Hypervisor registers another 16 MiB region.
			newBase := uint64(poolBase) + uint64(expansions)*poolSize
			if _, err := f.s.HVCall(f.h, FnRegisterPool, newBase, uint64(poolSize)); err != nil {
				t.Fatal(err)
			}
		case ExitShutdown:
			if expansions == 0 {
				t.Error("expected at least one expansion round")
			}
			if f.s.Stats.ExpansionRounds == 0 {
				t.Error("expansion stats not recorded")
			}
			return
		default:
			t.Fatalf("unexpected exit %v", info.Reason)
		}
	}
}

func TestMMIOReadRoundTrip(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000) // unmapped MMIO GPA
		p.LW(asm.S3, asm.T0, 8)   // signed 32-bit load
	}))
	info := f.run()
	if info.Reason != ExitMMIORead {
		t.Fatalf("reason = %v", info.Reason)
	}
	if info.GPA != 0x1000_0008 || info.Width != 4 || info.Target != asm.S3 {
		t.Fatalf("info = %+v", info)
	}
	// Hypervisor emulates the device: returns a negative 32-bit value.
	if err := f.m.RAM.WriteUint64(sharedPA+shvData, 0xFFFF_FFFE); err != nil {
		t.Fatal(err)
	}
	info = f.run()
	if info.Reason != ExitShutdown {
		t.Fatalf("second run reason = %v", info.Reason)
	}
	c := f.s.life.cvms[f.id]
	if got := c.vcpus[0].sec.X[asm.S3]; got != ^uint64(1) {
		t.Errorf("s3 = %#x, want sign-extended -2", got)
	}
}

func TestMMIOWriteRoundTrip(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LI(asm.T1, 0x1234)
		p.SW(asm.T1, asm.T0, 4)
	}))
	info := f.run()
	if info.Reason != ExitMMIOWrite {
		t.Fatalf("reason = %v", info.Reason)
	}
	if info.GPA != 0x1000_0004 || info.Width != 4 || info.Data != 0x1234 {
		t.Fatalf("info = %+v", info)
	}
	// The store data is also visible in the shared vCPU for the HV.
	if v, _ := f.m.RAM.ReadUint64(sharedPA + shvData); v != 0x1234 {
		t.Errorf("shared data = %#x", v)
	}
	if info = f.run(); info.Reason != ExitShutdown {
		t.Fatalf("second run = %v", info.Reason)
	}
}

func TestCheckAfterLoadDetectsTampering(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S4, asm.T0, 0)
	}))
	info := f.run()
	if info.Reason != ExitMMIORead {
		t.Fatalf("reason = %v", info.Reason)
	}
	// Malicious hypervisor redirects the result into the stack pointer.
	if err := f.m.RAM.WriteUint64(sharedPA+shvTargetReg, uint64(asm.SP)); err != nil {
		t.Fatal(err)
	}
	_, err := f.s.RunVCPU(f.h, f.id, 0)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
	if f.s.Stats.TamperDetected != 1 {
		t.Error("tamper statistic not recorded")
	}
	// Tampering is a fatal per-CVM fault: the CVM is quarantined (frames
	// scrubbed and returned, diagnostic record kept), not silently gone.
	if _, err := f.s.RunVCPU(f.h, f.id, 0); !errors.Is(err, ErrQuarantined) {
		t.Errorf("after kill: %v", err)
	}
	rec, ok := f.s.Quarantined(f.id)
	if !ok {
		t.Fatal("no quarantine record")
	}
	if !errors.Is(rec.Cause, ErrTampered) {
		t.Errorf("quarantine cause = %v, want ErrTampered", rec.Cause)
	}
	if f.s.PoolFreeBlocks() != poolSize/BlockSize {
		t.Errorf("pool free blocks = %d, want %d (no leak)", f.s.PoolFreeBlocks(), poolSize/BlockSize)
	}
	// Destroy of the quarantined id releases the post-mortem record.
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatalf("destroy of quarantined CVM: %v", err)
	}
	if _, ok := f.s.Quarantined(f.id); ok {
		t.Error("quarantine record not released by destroy")
	}
}

func TestGuestSBIPutcharAndRandom(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		for _, ch := range "hi" {
			p.LI(asm.A0, int64(ch))
			p.LI(asm.A7, EIDPutchar)
			p.ECALL()
		}
		p.LI(asm.A6, ZionFnRandom)
		p.LI(asm.A7, EIDZion)
		p.ECALL()
		p.MV(asm.S5, asm.A1) // entropy
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	if got := f.m.UART.Output(); got != "hi" {
		t.Errorf("uart = %q", got)
	}
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S5] == 0 {
		t.Error("entropy call returned zero")
	}
}

func TestMeasurementAndAttestation(t *testing.T) {
	prog := func(extra int64) *asm.Program {
		return shutdownProgram(func(p *asm.Program) {
			p.LI(asm.S0, 1000+extra)
			// Fetch the attestation report into private memory.
			p.LI(asm.A0, int64(PrivateBase)+0x8000) // report buffer GPA
			p.LI(asm.A1, 0x6E6F6E6365)              // nonce
			p.LI(asm.A6, ZionFnAttest)
			p.LI(asm.A7, EIDZion)
			p.ECALL()
			p.MV(asm.S6, asm.A1) // report length
		})
	}

	f := newFixture(t, Config{})
	f.buildCVM(prog(0))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	m1, err := f.s.Measurement(f.id)
	if err != nil || len(m1) != 32 {
		t.Fatalf("measurement: %v %d bytes", err, len(m1))
	}

	// The report landed in guest memory; find it via the CVM's own
	// stage-2 and verify it as the remote verifier would.
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S6] != 80 {
		t.Fatalf("report length = %d, want 80", c.vcpus[0].sec.X[asm.S6])
	}
	// Translate GPA 0x8000_8000: demand paging mapped it during the copy?
	// The SM's copyToGuest walked the stage-2 tree, so it must be mapped.
	w := &c.pt
	pte, _, err := w.Lookup(c.hgatpRoot, PrivateBase+0x8000, true)
	if err != nil {
		t.Fatalf("report page not mapped: %v", err)
	}
	pa := (pte >> isa.PTEPPNShift) << isa.PageShift
	report, err := f.m.RAM.Read(pa, 80)
	if err != nil {
		t.Fatal(err)
	}
	meas, cvmID, nonce, ok := f.s.VerifyReport(report)
	if !ok {
		t.Fatal("report MAC verification failed")
	}
	if !bytes.Equal(meas, m1) {
		t.Error("report measurement mismatch")
	}
	if cvmID != uint64(f.id) || nonce != 0x6E6F6E6365 {
		t.Errorf("report id/nonce = %d/%#x", cvmID, nonce)
	}
	// Tampered reports fail verification.
	report[0] ^= 1
	if _, _, _, ok := f.s.VerifyReport(report); ok {
		t.Error("tampered report verified")
	}

	// An identical image measures identically; a different one does not.
	f2 := newFixture(t, Config{})
	f2.buildCVM(prog(0))
	m2, _ := f2.s.Measurement(f2.id)
	if !bytes.Equal(m1, m2) {
		t.Error("identical images must measure identically")
	}
	f3 := newFixture(t, Config{})
	f3.buildCVM(prog(1))
	m3, _ := f3.s.Measurement(f3.id)
	if bytes.Equal(m1, m3) {
		t.Error("different images must measure differently")
	}
}

func TestTimerQuantumPreemption(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 20000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T1, 200000) // long busy loop
		p.Label("spin")
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	preemptions := 0
	for {
		info := f.run()
		if info.Reason == ExitTimer {
			preemptions++
			if preemptions > 1000 {
				t.Fatal("guest never finished")
			}
			continue
		}
		if info.Reason != ExitShutdown {
			t.Fatalf("reason = %v", info.Reason)
		}
		break
	}
	if preemptions < 3 {
		t.Errorf("preemptions = %d, want several across a long loop", preemptions)
	}
}

func TestGuestTimerInjection(t *testing.T) {
	f := newFixture(t, Config{})
	// Guest arms its own timer, enables VS timer interrupts, and wfi-waits;
	// the interrupt vectors to vstvec where we count and shut down.
	p := asm.New(PrivateBase)
	p.LA(asm.T0, "vshandler")
	p.CSRRW(asm.Zero, isa.CSRStvec, asm.T0) // remaps to vstvec in VS-mode
	// Enable SIE.STIE and global SIE (remapped to vsstatus/vsie).
	p.LI(asm.T1, 1<<isa.IntSTimer)
	p.CSRRS(asm.Zero, isa.CSRSie, asm.T1)
	p.LI(asm.T1, int64(isa.MstatusSIE))
	p.CSRRS(asm.Zero, isa.CSRSstatus, asm.T1)
	// sbi set_timer(now + 50000)
	p.CSRR(asm.A0, isa.CSRTime)
	p.LI(asm.T2, 50000)
	p.ADD(asm.A0, asm.A0, asm.T2)
	p.LI(asm.A7, EIDTime)
	p.ECALL()
	p.Label("wait")
	p.WFI()
	p.J("wait")
	p.Label("vshandler")
	p.LI(asm.S7, 777) // proof the guest handler ran
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	f.buildCVM(p)
	info := f.run()
	if info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S7] != 777 {
		t.Error("guest VS-timer handler did not run")
	}
}

func TestRunPreservesStateAcrossExits(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 5000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.S8, 0)
		p.LI(asm.T1, 50000)
		p.Label("spin")
		p.ADDI(asm.S8, asm.S8, 1)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	for {
		info := f.run()
		if info.Reason == ExitTimer {
			continue
		}
		if info.Reason != ExitShutdown {
			t.Fatalf("reason = %v", info.Reason)
		}
		break
	}
	c := f.s.life.cvms[f.id]
	if c.vcpus[0].sec.X[asm.S8] != 50000 {
		t.Errorf("s8 = %d, want 50000 (state lost across preemptions)", c.vcpus[0].sec.X[asm.S8])
	}
}

func TestDestroyScrubsAndReleases(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.LI(asm.T1, 0x5EC4E7) // the "secret"
		p.SD(asm.T1, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("reason = %v", info.Reason)
	}
	c := f.s.life.cvms[f.id]
	// Find the secret's physical frame before destroying.
	b := &c.pt
	pte, _, err := b.Lookup(c.hgatpRoot, PrivateBase+0x10_0000, true)
	if err != nil {
		t.Fatal(err)
	}
	pa := (pte >> isa.PTEPPNShift) << isa.PageShift
	if v, _ := f.m.RAM.ReadUint64(pa); v != 0x5EC4E7 {
		t.Fatalf("secret not written: %#x", v)
	}
	free := f.s.PoolFreeBlocks()
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.m.RAM.ReadUint64(pa); v != 0 {
		t.Error("destroy did not scrub confidential memory")
	}
	if f.s.PoolFreeBlocks() <= free {
		t.Error("destroy did not release blocks")
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); !errors.Is(err, ErrNotFound) {
		t.Errorf("double destroy: %v", err)
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	f := newFixture(t, Config{})
	id, err := f.s.HVCall(f.h, FnCreateCVM)
	if err != nil {
		t.Fatal(err)
	}
	// vCPU before finalize: rejected.
	if _, err := f.s.HVCall(f.h, FnCreateVCPU, id, sharedPA); !errors.Is(err, ErrBadState) {
		t.Errorf("vCPU before finalize: %v", err)
	}
	if _, err := f.s.HVCall(f.h, FnFinalize, id, PrivateBase); err != nil {
		t.Fatal(err)
	}
	// Load after finalize: rejected.
	if _, err := f.s.HVCall(f.h, FnLoadPage, id, PrivateBase, stagingPA); !errors.Is(err, ErrBadState) {
		t.Errorf("load after finalize: %v", err)
	}
	// Double finalize: rejected.
	if _, err := f.s.HVCall(f.h, FnFinalize, id, PrivateBase); !errors.Is(err, ErrBadState) {
		t.Errorf("double finalize: %v", err)
	}
}

func TestABIValidation(t *testing.T) {
	f := newFixture(t, Config{})
	cases := []struct {
		name string
		fn   FuncID
		args []uint64
	}{
		{"unknown fn", FuncID(99), nil},
		{"pool outside RAM", FnRegisterPool, []uint64{0x1000, poolSize}},
		{"pool unaligned", FnRegisterPool, []uint64{platform.RAMBase + 1234, poolSize}},
		{"load into unknown cvm", FnLoadPage, []uint64{999, PrivateBase, stagingPA}},
		{"destroy unknown", FnDestroy, []uint64{999}},
		{"run via HVCall", FnRun, nil},
	}
	for _, c := range cases {
		if _, err := f.s.HVCall(f.h, c.fn, c.args...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSharedVCPUMustBeNormalMemory(t *testing.T) {
	f := newFixture(t, Config{})
	id, _ := f.s.HVCall(f.h, FnCreateCVM)
	_, _ = f.s.HVCall(f.h, FnFinalize, id, PrivateBase)
	if _, err := f.s.HVCall(f.h, FnCreateVCPU, id, uint64(poolBase)); !errors.Is(err, ErrNotNormal) {
		t.Errorf("secure shared page accepted: %v", err)
	}
}

func TestLoadPageSourceMustBeNormal(t *testing.T) {
	f := newFixture(t, Config{})
	id, _ := f.s.HVCall(f.h, FnCreateCVM)
	if _, err := f.s.HVCall(f.h, FnLoadPage, id, PrivateBase, uint64(poolBase)); !errors.Is(err, ErrNotNormal) {
		t.Errorf("secure image source accepted: %v", err)
	}
	// Loading into the shared window is also rejected.
	if _, err := f.s.HVCall(f.h, FnLoadPage, id, SharedBase, stagingPA); err == nil {
		t.Error("image load into shared window accepted")
	}
}
