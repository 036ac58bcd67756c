package sm

import (
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
)

// engineMatrix enumerates the four execution engines. Every scenario in
// this file runs once per engine and the results must be bit-identical:
// the trace, superblock, and fast-path engines claim exact cycle
// accounting, and SM fault handling (quarantine post-mortems included)
// must not observe which engine hit the fault.
var engineMatrix = []struct {
	name string
	set  func(h *hart.Hart)
}{
	{"trace", func(*hart.Hart) {}},
	{"block", func(h *hart.Hart) { h.SetTraces(false) }},
	{"fast", func(h *hart.Hart) { h.SetSuperblocks(false) }},
	{"slow", func(h *hart.Hart) { h.DisableFastPath() }},
}

// perEngine runs fn once per engine; fn puts the harts it builds on the
// engine with tier.
func perEngine(t *testing.T, fn func(t *testing.T, tier func(h *hart.Hart))) {
	t.Helper()
	for _, e := range engineMatrix {
		t.Run(e.name, func(t *testing.T) { fn(t, e.set) })
	}
}

// compSnap is the observable outcome of a mid-run compartment fault,
// captured for cross-engine comparison. Cause is compared by rendered
// string: the error values are distinct allocations per run but must
// describe the identical fault.
type compSnap struct {
	comp    Compartment
	op      string
	cycle   uint64
	hartID  int
	epoch   uint64
	cause   string
	reason  ExitReason
	data    uint64
	sbiErr  uint64 // a0 the guest saw from the refused SBI call
	cycles  uint64 // hart cycle counter at the end of the run
	calls   uint64 // attest gate crossings
	denied  uint64 // attest gate refusals
	upCalls uint64 // switch gate crossings (the legal path stays counted)
}

// TestQuadEngineCompartmentQuarantineLockstep corrupts the attestation key
// and lets the guest trip over it mid-run via a ZionFnAttest ECALL: the
// gate's integrity check quarantines the attest compartment in the middle
// of a (super)block, the guest receives an SBI error and keeps running to
// shutdown. Post-mortem attribution (compartment, op, cycle, hart, epoch,
// cause), the guest-visible outcome, and the final cycle counter must be
// bit-identical across the slow, fast, superblock, and trace engines.
func TestQuadEngineCompartmentQuarantineLockstep(t *testing.T) {
	var snaps []compSnap
	perEngine(t, func(t *testing.T, tier func(h *hart.Hart)) {
		f := newFixture(t, Config{})
		tier(f.h)
		f.buildCVM(shutdownProgram(func(p *asm.Program) {
			// Enough straight-line compute for the superblock engine to
			// form and chain blocks before the fault site.
			p.LI(asm.T0, 64)
			p.LI(asm.S0, 0)
			p.Label("loop")
			p.ADD(asm.S0, asm.S0, asm.T0)
			p.ADDI(asm.T0, asm.T0, -1)
			p.BNE(asm.T0, asm.Zero, "loop")
			p.LI(asm.A0, int64(PrivateBase)+0x8000)
			p.LI(asm.A1, 0x7269)
			p.LI(asm.A6, ZionFnAttest)
			p.LI(asm.A7, EIDZion)
			p.ECALL()
			p.MV(asm.S5, asm.A0) // SBI error code from the refused call
			p.MV(asm.A0, asm.S0) // report the checksum through shutdown
		}))
		f.s.CorruptAttestKey(3)

		info := f.run()
		if info.Reason != ExitShutdown {
			t.Fatalf("reason = %v, want shutdown (attest loss must not kill the CVM)", info.Reason)
		}
		if !f.s.CompartmentDown(CompAttest) {
			t.Fatal("attest compartment not quarantined")
		}
		rec, ok := f.s.CompartmentRecordOf(CompAttest)
		if !ok || rec == nil {
			t.Fatal("no post-mortem record for attest compartment")
		}
		if rec.Cause == nil {
			t.Fatal("post-mortem has no cause")
		}
		c := f.s.life.cvms[f.id]
		aCalls, aDenied := f.s.GateStats(CompAttest)
		sCalls, _ := f.s.GateStats(CompSwitch)
		snaps = append(snaps, compSnap{
			comp:    rec.Compartment,
			op:      rec.Op,
			cycle:   rec.Cycle,
			hartID:  rec.Hart,
			epoch:   rec.Epoch,
			cause:   rec.Cause.Error(),
			reason:  info.Reason,
			data:    info.Data,
			sbiErr:  c.vcpus[0].sec.X[asm.S5],
			cycles:  f.h.Cycles,
			calls:   aCalls,
			denied:  aDenied,
			upCalls: sCalls,
		})
	})

	if len(snaps) != len(engineMatrix) {
		t.Fatalf("engines run = %d, want %d", len(snaps), len(engineMatrix))
	}
	ref := snaps[0]
	if ref.comp != CompAttest || ref.op != "sbi-attest" {
		t.Errorf("post-mortem = %v/%q, want attest/sbi-attest", ref.comp, ref.op)
	}
	if ref.sbiErr != 1 {
		t.Errorf("guest saw SBI a0 = %d, want 1 (refused)", ref.sbiErr)
	}
	if ref.data != 64*65/2 {
		t.Errorf("guest checksum = %d, want %d", ref.data, 64*65/2)
	}
	for i, s := range snaps[1:] {
		if s != ref {
			t.Errorf("engine %s diverged from %s:\n  %+v\nvs\n  %+v",
				engineMatrix[i+1].name, engineMatrix[0].name, s, ref)
		}
	}
}

// quarSnap is the observable outcome of a mid-run CVM quarantine.
type quarSnap struct {
	cause      string
	cycle      uint64
	hartID     int
	comp       Compartment
	epoch      uint64
	pagesFreed int
	cycles     uint64
	pool       int
}

// TestQuadEngineCVMQuarantineLockstep drives the shared-vCPU tamper fault
// (hostile hypervisor garbles the exit sequence number during an MMIO
// round trip) under each engine: the Check-after-Load detection, the
// quarantine post-mortem's origin attribution, the scrub count, and the
// final cycle counter must be bit-identical across engines.
func TestQuadEngineCVMQuarantineLockstep(t *testing.T) {
	var snaps []quarSnap
	perEngine(t, func(t *testing.T, tier func(h *hart.Hart)) {
		f := newFixture(t, Config{})
		tier(f.h)
		id := f.buildCVM(shutdownProgram(func(p *asm.Program) {
			p.LI(asm.T0, 0x1000_0000) // MMIO window: forces a publishExit
			p.LD(asm.S4, asm.T0, 0)
		}))
		info, err := f.s.RunVCPU(f.h, id, 0)
		if err != nil || info.Reason != ExitMMIORead {
			t.Fatalf("victim exit = %v, %v", info.Reason, err)
		}
		if err := f.m.RAM.WriteUint64(sharedPA+shvSeq, 0xDEAD); err != nil {
			t.Fatal(err)
		}
		if _, err := f.s.RunVCPU(f.h, id, 0); !errors.Is(err, ErrTampered) {
			t.Fatalf("tamper: %v", err)
		}
		rec, ok := f.s.Quarantined(id)
		if !ok {
			t.Fatal("CVM not quarantined")
		}
		snaps = append(snaps, quarSnap{
			cause:      rec.Cause.Error(),
			cycle:      rec.Cycle,
			hartID:     rec.Hart,
			comp:       rec.Compartment,
			epoch:      rec.Epoch,
			pagesFreed: rec.PagesFreed,
			cycles:     f.h.Cycles,
			pool:       f.s.PoolFreeBlocks(),
		})
	})

	if len(snaps) != len(engineMatrix) {
		t.Fatalf("engines run = %d, want %d", len(snaps), len(engineMatrix))
	}
	ref := snaps[0]
	if ref.pagesFreed == 0 {
		t.Error("quarantine scrubbed no pages")
	}
	for i, s := range snaps[1:] {
		if s != ref {
			t.Errorf("engine %s diverged from %s:\n  %+v\nvs\n  %+v",
				engineMatrix[i+1].name, engineMatrix[0].name, s, ref)
		}
	}
}
