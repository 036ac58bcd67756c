package sm

import (
	"errors"
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/platform"
)

// These tests drive the SM through hostile-hypervisor call sequences:
// lifecycle abuse (double-destroy, run-before-finalize, load-after-
// finalize), corrupted snapshot blobs, shared subtables naming secure
// memory, and tampering mid-round-trip. Every sequence must reject with a
// typed *SMError (or quarantine the one CVM it targets) — never panic,
// never leak a secure frame, never disturb a co-resident CVM.

// fullPool is the free-block count when nothing is allocated.
const fullPool = poolSize / BlockSize

func wantCode(t *testing.T, err error, code ErrCode) {
	t.Helper()
	smerr, ok := AsSMError(err)
	if !ok {
		t.Fatalf("err = %v, want *SMError", err)
	}
	if smerr.Code != code {
		t.Fatalf("code = %v, want %v (err: %v)", smerr.Code, code, err)
	}
}

func TestDoubleDestroy(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	_, err := f.s.HVCall(f.h, FnDestroy, uint64(id))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("second destroy: %v, want ErrNotFound", err)
	}
	wantCode(t, err, CodeNotFound)
	if f.s.PoolFreeBlocks() != fullPool {
		t.Errorf("pool = %d blocks, want %d", f.s.PoolFreeBlocks(), fullPool)
	}
}

func TestDestroyBetweenQuantaThenRun(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 5_000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 200_000)
		p.Label("spin")
		p.ADDI(asm.T0, asm.T0, -1)
		p.BNE(asm.T0, asm.Zero, "spin")
	}))
	if info := f.run(); info.Reason != ExitTimer {
		t.Fatalf("first quantum = %v, want ExitTimer", info.Reason)
	}
	// Hostile hypervisor destroys the CVM mid-execution (between quanta)
	// and then tries to run it anyway.
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	_, err := f.s.RunVCPU(f.h, f.id, 0)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("run after destroy: %v, want ErrNotFound", err)
	}
	if f.s.PoolFreeBlocks() != fullPool {
		t.Errorf("pool = %d blocks, want %d", f.s.PoolFreeBlocks(), fullPool)
	}
}

func TestSuspendOfDestroyedCVM(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	_, err := f.s.HVCall(f.h, FnSuspend, uint64(id))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("suspend of destroyed: %v, want ErrNotFound", err)
	}
	wantCode(t, err, CodeNotFound)
	// Resume of a never-suspended id and of garbage ids also reject.
	if _, err := f.s.HVCall(f.h, FnResume, uint64(id)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resume of destroyed: %v", err)
	}
	if _, err := f.s.HVCall(f.h, FnSuspend, 99_999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("suspend of unknown: %v", err)
	}
}

func TestRunBeforeFinalize(t *testing.T) {
	f := newFixture(t, Config{})
	id64, err := f.s.HVCall(f.h, FnCreateCVM)
	if err != nil {
		t.Fatal(err)
	}
	id := int(id64)
	// vCPU creation before finalize is itself a state violation…
	_, err = f.s.HVCall(f.h, FnCreateVCPU, id64, sharedPA)
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("create-vcpu before finalize: %v, want ErrBadState", err)
	}
	wantCode(t, err, CodeBadState)
	// …and so is running the still-building CVM directly.
	if _, err := f.s.RunVCPU(f.h, id, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("run before finalize: %v, want ErrBadState", err)
	}
}

func TestLoadAfterFinalize(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))
	_, err := f.s.HVCall(f.h, FnLoadPage, uint64(id), PrivateBase+0x10000, stagingPA)
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("load after finalize: %v, want ErrBadState", err)
	}
	smerr, _ := AsSMError(err)
	if smerr.CVMID != id {
		t.Errorf("error CVM scope = %d, want %d", smerr.CVMID, id)
	}
	if smerr.Severity != SevRecoverable {
		t.Errorf("severity = %v, want recoverable", smerr.Severity)
	}
	// The rejected call changed nothing: the CVM still runs.
	if info := f.run(); info.Reason != ExitShutdown {
		t.Errorf("after rejected load: %v", info.Reason)
	}
}

func TestRestoreCorruptedSnapshot(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.S3, 77)
	}))
	if _, err := f.s.HVCall(f.h, FnSuspend, uint64(id)); err != nil {
		t.Fatal(err)
	}
	destPA := uint64(platform.RAMBase + 0x0030_0000)
	n, err := f.s.Snapshot(f.h, id, destPA, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(id)); err != nil {
		t.Fatal(err)
	}
	free := f.s.PoolFreeBlocks()
	// Flip one bit deep in the sealed blob: authentication must fail and
	// no partially-restored CVM (or frame) may survive.
	if err := f.m.RAM.FlipBit(destPA+n/2, 3); err != nil {
		t.Fatal(err)
	}
	_, err = f.s.Restore(f.h, destPA, n)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("restore of corrupted blob: %v, want ErrTampered", err)
	}
	if f.s.PoolFreeBlocks() != free {
		t.Errorf("pool = %d blocks, want %d (no leak from failed restore)",
			f.s.PoolFreeBlocks(), free)
	}
	// Truncated blob (shorter than the AEAD nonce) must also reject.
	if _, err := f.s.Restore(f.h, destPA, 4); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("restore of truncated blob: %v, want ErrBadArgs", err)
	}
}

func TestRegisterSharedHostileSubtables(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))

	// A subtable inside secure memory would let the SM write where the
	// hypervisor can't follow — and the hypervisor shouldn't name secure
	// frames at all.
	_, err := f.s.HVCall(f.h, FnRegisterShared, uint64(id), uint64(poolBase))
	if !errors.Is(err, ErrNotNormal) {
		t.Fatalf("secure subtable: %v, want ErrNotNormal", err)
	}
	wantCode(t, err, CodeNotNormal)

	// A normal-memory subtable whose leaf maps a secure frame is the §IV.E
	// attack: a shared window into confidential memory.
	subPA := uint64(platform.RAMBase + 0x0040_0000)
	if err := f.m.RAM.Zero(subPA, isa.PageSize); err != nil {
		t.Fatal(err)
	}
	l0PA := uint64(platform.RAMBase + 0x0041_0000)
	if err := f.m.RAM.Zero(l0PA, isa.PageSize); err != nil {
		t.Fatal(err)
	}
	ptr := (l0PA>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid
	if err := f.m.RAM.WriteUint64(subPA, ptr); err != nil {
		t.Fatal(err)
	}
	evil := (uint64(poolBase)>>isa.PageShift)<<isa.PTEPPNShift | isa.PTEValid |
		isa.PTERead | isa.PTEWrite | isa.PTEUser
	if err := f.m.RAM.WriteUint64(l0PA, evil); err != nil {
		t.Fatal(err)
	}
	_, err = f.s.HVCall(f.h, FnRegisterShared, uint64(id), subPA)
	if !errors.Is(err, ErrOwnership) {
		t.Fatalf("secure-leaf subtable: %v, want ErrOwnership", err)
	}
	wantCode(t, err, CodeOwnership)
}

// TestSharedVCPUEscapeReturnsTypedError is the regression test for the
// former panics at the shared-vCPU RAM-escape sites: an SM whose
// shared-page binding escapes RAM must fail publishExit and
// resumeFromExit with a typed fatal-per-CVM error, not take the process
// down.
func TestSharedVCPUEscapeReturnsTypedError(t *testing.T) {
	f := newFixture(t, Config{})
	ramEnd := uint64(platform.RAMBase) + ramSize
	wantFatalMemory := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s escape: no error", what)
		}
		wantCode(t, err, CodeMemory)
		if smerr, _ := AsSMError(err); smerr.Severity != SevFatalCVM {
			t.Errorf("%s: severity = %v, want fatal-cvm", what, smerr.Severity)
		}
	}
	c := &CVM{}
	v := &VCPU{sharedPA: ramEnd - 8} // the line's last word escapes RAM
	f.s.publishExit(f.h, c, v, ExitInfo{Reason: ExitMMIORead})
	if c.fatal == nil {
		t.Fatal("write escape: CVM not marked fatal")
	}
	wantFatalMemory("write", c.fatal.err)
	if v.pending.valid {
		t.Error("write escape left a pending round trip")
	}
	v.pending = pendingExit{valid: true, seq: v.seq}
	wantFatalMemory("read", f.s.resumeFromExit(f.h, c, v))
}

// TestPublishEscapeQuarantinesCVM drives the publish escape through
// the full world switch: corrupting the shared-page binding mid-run must
// surface as ExitError + quarantine, with bystanders unaffected.
func TestPublishEscapeQuarantinesCVM(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000) // MMIO window: forces a publishExit
		p.LD(asm.S4, asm.T0, 0)
	}))
	// Simulate the internal corruption fault: the vCPU's shared page
	// binding now points at the last bytes of RAM.
	ramEnd := uint64(platform.RAMBase) + ramSize
	f.s.life.cvms[id].vcpus[0].sharedPA = ramEnd - 8
	info, err := f.s.RunVCPU(f.h, id, 0)
	if info.Reason != ExitError {
		t.Fatalf("reason = %v, want ExitError", info.Reason)
	}
	if err == nil {
		t.Fatal("no error from publish escape")
	}
	wantCode(t, err, CodeMemory)
	rec, ok := f.s.Quarantined(id)
	if !ok {
		t.Fatal("CVM not quarantined")
	}
	// The post-mortem embeds the faulting hart's flight-recorder tail,
	// ending with the quarantine event itself.
	if len(rec.Flight) == 0 {
		t.Error("quarantine record carries no flight-recorder tail")
	} else if !strings.Contains(rec.Flight[len(rec.Flight)-1], "quarantine") {
		t.Errorf("flight tail does not end at the quarantine event:\n%s",
			strings.Join(rec.Flight, "\n"))
	}
	if f.s.PoolFreeBlocks() != fullPool {
		t.Errorf("pool = %d blocks, want %d", f.s.PoolFreeBlocks(), fullPool)
	}
}

// TestSharedVCPUEscapeQuarantines points a vCPU's shared-page binding
// past the end of RAM, before the exit is published and before the
// hypervisor's answer is loaded. Either way the run fails with a typed
// CodeMemory/SevFatalCVM error, the CVM is quarantined, the auditor finds
// nothing, and a co-resident CVM still runs to shutdown.
func TestSharedVCPUEscapeQuarantines(t *testing.T) {
	ramEnd := uint64(platform.RAMBase) + ramSize
	for _, direction := range []string{"publish", "resume"} {
		t.Run(direction, func(t *testing.T) {
			f := newFixture(t, Config{})
			bystander := f.buildCVM(shutdownProgram(func(p *asm.Program) { p.LI(asm.A0, 55) }))
			victim := f.buildCVM(shutdownProgram(func(p *asm.Program) {
				p.LI(asm.T0, 0x1000_0000) // MMIO window: forces a publishExit
				p.LD(asm.S4, asm.T0, 0)
			}))
			v := f.s.life.cvms[victim].vcpus[0]
			if direction == "resume" {
				if info := f.run(); info.Reason != ExitMMIORead {
					t.Fatalf("exit = %v, want mmio-read", info.Reason)
				}
			}
			v.sharedPA = ramEnd
			info, err := f.s.RunVCPU(f.h, victim, 0)
			if info.Reason != ExitError || err == nil {
				t.Fatalf("run = %v, %v; want ExitError and an error", info.Reason, err)
			}
			wantCode(t, err, CodeMemory)
			if smerr, _ := AsSMError(err); smerr.Severity != SevFatalCVM {
				t.Errorf("severity = %v, want fatal-cvm", smerr.Severity)
			}
			if _, ok := f.s.Quarantined(victim); !ok {
				t.Fatal("CVM not quarantined")
			}
			if found := f.s.Audit(); len(found) != 0 {
				t.Fatalf("audit findings %v", found)
			}
			f.id = bystander
			if info := f.run(); info.Reason != ExitShutdown || info.Data != 55 {
				t.Fatalf("bystander = %v (a0 %d), want shutdown with 55", info.Reason, info.Data)
			}
		})
	}
}

// TestQuarantineSparesBystanders proves graceful degradation: tampering
// kills one CVM while a co-resident CVM completes its run untouched.
func TestQuarantineSparesBystanders(t *testing.T) {
	f := newFixture(t, Config{})
	victim := f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 0x1000_0000)
		p.LD(asm.S4, asm.T0, 0)
	}))
	victimShared := uint64(sharedPA)

	// Bystander: sums 1..100 = 5050 and reports it via shutdown a0.
	bystanderShared := uint64(platform.RAMBase + 0x0021_0000)
	code := shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, 100)
		p.LI(asm.A0, 0)
		p.Label("sum")
		p.ADD(asm.A0, asm.A0, asm.T0)
		p.ADDI(asm.T0, asm.T0, -1)
		p.BNE(asm.T0, asm.Zero, "sum")
	}).MustAssemble()
	stage2 := uint64(platform.RAMBase + 0x0011_0000)
	if err := f.m.RAM.Write(stage2, code); err != nil {
		t.Fatal(err)
	}
	id64, err := f.s.HVCall(f.h, FnCreateCVM)
	if err != nil {
		t.Fatal(err)
	}
	bystander := int(id64)
	npages := (len(code) + isa.PageSize - 1) / isa.PageSize
	for i := 0; i < npages; i++ {
		off := uint64(i) * isa.PageSize
		if _, err := f.s.HVCall(f.h, FnLoadPage, id64, PrivateBase+off, stage2+off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.s.HVCall(f.h, FnFinalize, id64, PrivateBase); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnCreateVCPU, id64, bystanderShared); err != nil {
		t.Fatal(err)
	}

	// Victim exits for MMIO; hostile hypervisor garbles the sequence
	// number; resume detects tampering and quarantines.
	info, err := f.s.RunVCPU(f.h, victim, 0)
	if err != nil || info.Reason != ExitMMIORead {
		t.Fatalf("victim exit = %v, %v", info.Reason, err)
	}
	if err := f.m.RAM.WriteUint64(victimShared+shvSeq, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.RunVCPU(f.h, victim, 0); !errors.Is(err, ErrTampered) {
		t.Fatalf("tamper: %v", err)
	}
	if _, ok := f.s.Quarantined(victim); !ok {
		t.Fatal("victim not quarantined")
	}

	// Bystander is untouched and completes correctly.
	binfo, err := f.s.RunVCPU(f.h, bystander, 0)
	if err != nil || binfo.Reason != ExitShutdown {
		t.Fatalf("bystander = %v, %v", binfo.Reason, err)
	}
	if binfo.Data != 5050 {
		t.Errorf("bystander sum = %d, want 5050", binfo.Data)
	}
	// No secure frames lost: bystander teardown returns the pool to full.
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(bystander)); err != nil {
		t.Fatal(err)
	}
	if f.s.PoolFreeBlocks() != fullPool {
		t.Errorf("pool = %d blocks, want %d", f.s.PoolFreeBlocks(), fullPool)
	}
	if findings := f.s.Audit(); len(findings) != 0 {
		t.Errorf("audit findings after teardown: %v", findings)
	}
}

// TestNewRejectsUnencodablePlatform is the regression test for the former
// programBasePMP panics: a RAM geometry PMP cannot express must surface
// as a typed fatal-platform error from New.
func TestNewRejectsUnencodablePlatform(t *testing.T) {
	// 3 GiB RAM at base 0x8000_0000: rounds to a 4 GiB NAPOT region whose
	// base is not 4 GiB-aligned, which NAPOT cannot encode.
	m := platform.New(1, 3<<30)
	_, err := New(m, Config{})
	if err == nil {
		t.Fatal("New accepted an unencodable platform")
	}
	wantCode(t, err, CodePlatform)
	if smerr, _ := AsSMError(err); smerr.Severity != SevFatalPlatform {
		t.Errorf("severity = %v, want fatal-platform", smerr.Severity)
	}
}

// TestAuditDetectsCrossLayerCorruption checks the invariant auditor sees
// through each layer: a garbled PMP entry, a bit-flipped page table, and
// an IOPMP window into the pool each produce a finding; RepairPMP heals
// the PMP layer.
func TestAuditDetectsCrossLayerCorruption(t *testing.T) {
	f := newFixture(t, Config{})
	id := f.buildCVM(shutdownProgram(func(p *asm.Program) {}))
	if findings := f.s.Audit(); len(findings) != 0 {
		t.Fatalf("clean state has findings: %v", findings)
	}

	// Layer 1: PMP corruption (pool entry opened to Normal mode).
	f.h.PMP.SetCfg(pmpPoolFirst, f.h.PMP.Cfg(pmpPoolFirst)|0x7)
	found := f.s.Audit()
	if len(found) == 0 || found[0].Kind != AuditPMPPlan {
		t.Fatalf("PMP corruption not detected: %v", found)
	}
	if fixed := f.s.RepairPMP(); fixed == 0 {
		t.Fatal("RepairPMP fixed nothing")
	}
	if findings := f.s.Audit(); len(findings) != 0 {
		t.Fatalf("findings after repair: %v", findings)
	}

	// Layer 2: stage-2 page-table corruption (leaf PPN bit flip) of the
	// lowest mapped GPA.
	c := f.s.life.cvms[id]
	gpa, _, ok := c.mappings.next(0)
	if !ok {
		t.Fatal("CVM has no private mappings")
	}
	b := f.tableWalk(c, gpa)
	if err := f.m.RAM.FlipBit(b+1, 4); err != nil { // PTE bit 12: PPN low bit
		t.Fatal(err)
	}
	found = f.s.Audit()
	if !hasKind(found, AuditMappingBroken) {
		t.Fatalf("page-table corruption not detected: %v", found)
	}
}

// A corrupted gate unit is reported against its own compartment, the
// next crossing into that compartment quarantines it, RepairGatePMP
// rewrites every unit and reports how many, and the audit then comes
// back clean while the quarantine stands: repair does not lift it.
func TestGatePMPCorruptAuditRepair(t *testing.T) {
	for c := Compartment(0); c < NumCompartments; c++ {
		t.Run(c.String(), func(t *testing.T) {
			f := newFixture(t, Config{})
			f.s.CorruptGatePMP(c, 30)
			found := f.s.Audit()
			if len(found) == 0 {
				t.Fatal("gate-unit corruption not detected")
			}
			for _, fd := range found {
				if fd.Kind != AuditCompartmentPMP || fd.Scope() != c {
					t.Errorf("finding %v (scope %s), want only %s findings scoped to %s",
						fd, fd.Scope(), AuditCompartmentPMP, c)
				}
			}
			if err := f.s.GateProbe(f.h, int64(CompHost), int64(c), "probe"); err == nil {
				t.Fatal("crossing through a corrupt gate unit succeeded")
			}
			rec, down := f.s.CompartmentRecordOf(c)
			if !down {
				t.Fatal("corrupt gate unit did not quarantine its compartment")
			}
			if n := f.s.RepairGatePMP(); n != int(NumCompartments) {
				t.Errorf("RepairGatePMP = %d, want %d", n, NumCompartments)
			}
			if found := f.s.Audit(); len(found) != 0 {
				t.Errorf("findings after repair: %v", found)
			}
			if after, still := f.s.CompartmentRecordOf(c); !still || after != rec {
				t.Error("repair lifted the quarantine or replaced its record")
			}
			if err := f.s.GateProbe(f.h, int64(CompHost), int64(c), "probe"); err == nil {
				t.Error("repaired but quarantined compartment accepted a crossing")
			}
		})
	}
}

// tableWalk returns the physical address of the level-0 PTE for gpa.
func (f *fixture) tableWalk(c *CVM, gpa uint64) uint64 {
	f.t.Helper()
	addr := c.hgatpRoot
	levels := []uint{30, 21, 12}
	rootBits := uint64(2047) // Sv39x4 root has 2048 entries
	for i, shift := range levels {
		mask := uint64(511)
		if i == 0 {
			mask = rootBits
		}
		idx := (gpa >> shift) & mask
		pteAddr := addr + idx*8
		if shift == 12 {
			return pteAddr
		}
		pte, err := f.m.RAM.ReadUint64(pteAddr)
		if err != nil || pte&isa.PTEValid == 0 {
			f.t.Fatalf("walk broke at shift %d", shift)
		}
		addr = (pte >> isa.PTEPPNShift) << isa.PageShift
	}
	return 0
}

func hasKind(fs []AuditFinding, k AuditKind) bool {
	for _, f := range fs {
		if f.Kind == k {
			return true
		}
	}
	return false
}
