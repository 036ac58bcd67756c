package sm

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/platform"
)

const snapBufPA = platform.RAMBase + 0x0030_0000

// TestSnapshotRestoreRoundTrip: run a CVM halfway, suspend, seal it,
// destroy the original, restore from the blob, and finish the run — the
// counter must land exactly where an uninterrupted run would.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 15_000})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.S2, 0)
		p.LI(asm.T1, 80_000)
		p.Label("spin")
		p.ADDI(asm.S2, asm.S2, 1)
		// Stamp progress into memory so the snapshot carries dirty pages.
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.SD(asm.S2, asm.T0, 0)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
	}))
	// Run a few quanta, then suspend mid-computation.
	for i := 0; i < 3; i++ {
		if info := f.run(); info.Reason != ExitTimer {
			t.Fatalf("round %d: %v", i, info.Reason)
		}
	}
	origMeas, _ := f.s.Measurement(f.id)
	if _, err := f.s.HVCall(f.h, FnSuspend, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	n, err := f.s.Snapshot(f.h, f.id, snapBufPA, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty snapshot")
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatal(err)
	}

	newID, err := f.s.Restore(f.h, snapBufPA, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.s.AttachSharedVCPU(newID, 0, sharedPA); err != nil {
		t.Fatal(err)
	}
	// Measurement identity survives restore.
	meas, err := f.s.Measurement(newID)
	if err != nil || !bytes.Equal(meas, origMeas) {
		t.Errorf("measurement changed across restore")
	}
	// Finish the computation.
	f.id = newID
	for {
		info := f.run()
		if info.Reason == ExitShutdown {
			break
		}
		if info.Reason != ExitTimer {
			t.Fatalf("post-restore: %v", info.Reason)
		}
	}
	v := f.s.life.cvms[newID].vcpus[0]
	if v.sec.X[asm.S2] != 80_000 {
		t.Errorf("counter = %d, want 80000 (state lost across seal/restore)", v.sec.X[asm.S2])
	}
}

// TestSnapshotKeepsPendingTimerInterrupt: a guest whose own deadline
// passed with interrupts masked has an injected VSTIP pending when it is
// suspended; sealing and restoring must keep it, so the guest takes the
// interrupt once it unmasks.
func TestSnapshotKeepsPendingTimerInterrupt(t *testing.T) {
	f := newFixture(t, Config{SchedQuantum: 15_000})
	p := shutdownProgram(func(p *asm.Program) {
		p.LA(asm.T0, "handler")
		p.CSRRW(asm.Zero, isa.CSRStvec, asm.T0)
		p.LI(asm.T1, 1<<isa.IntSTimer)
		p.CSRRS(asm.Zero, isa.CSRSie, asm.T1)
		p.CSRR(asm.A0, isa.CSRTime)
		p.LI(asm.T2, 2_000)
		p.ADD(asm.A0, asm.A0, asm.T2)
		p.LI(asm.A7, EIDTime)
		p.ECALL()
		p.LI(asm.T1, 20_000)
		p.Label("spin")
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "spin")
		p.LI(asm.T1, int64(isa.MstatusSIE))
		p.CSRRS(asm.Zero, isa.CSRSstatus, asm.T1)
		p.NOP()
		p.MV(asm.A1, asm.S8)
		p.LI(asm.A0, 0)
	})
	p.Label("handler")
	p.ADDI(asm.S8, asm.S8, 1)
	p.CSRRW(asm.Zero, isa.CSRSie, asm.Zero)
	p.SRET()
	f.buildCVM(p)
	if info := f.run(); info.Reason != ExitTimer {
		t.Fatalf("first run: %v, want a quantum expiry", info.Reason)
	}
	if hvip := f.s.life.cvms[f.id].vcpus[0].sec.Hvip; hvip&(1<<isa.IntVSTimer) == 0 {
		t.Fatalf("hvip = %#x after the deadline passed, want VSTIP pending", hvip)
	}
	if _, err := f.s.HVCall(f.h, FnSuspend, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	n, err := f.s.Snapshot(f.h, f.id, snapBufPA, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
		t.Fatal(err)
	}
	if f.id, err = f.s.Restore(f.h, snapBufPA, n); err != nil {
		t.Fatal(err)
	}
	if err := f.s.AttachSharedVCPU(f.id, 0, sharedPA); err != nil {
		t.Fatal(err)
	}
	info := f.run()
	for info.Reason == ExitTimer {
		info = f.run()
	}
	if info.Reason != ExitShutdown || info.Data2 != 1 {
		t.Fatalf("after restore: %v, handler ran %d times, want shutdown after 1", info.Reason, info.Data2)
	}
}

// TestSnapshotRestoreDeterministic: two identical fresh runs restore to
// identical frame layouts, because the blob lists pages in GPA order.
func TestSnapshotRestoreDeterministic(t *testing.T) {
	restored := func() []uint64 {
		f := newFixture(t, Config{})
		f.buildCVM(shutdownProgram(func(p *asm.Program) {
			p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
			p.LI(asm.T1, 24)
			p.Label("touch")
			p.SD(asm.T1, asm.T0, 0)
			p.LI(asm.T2, 4096)
			p.ADD(asm.T0, asm.T0, asm.T2)
			p.ADDI(asm.T1, asm.T1, -1)
			p.BNE(asm.T1, asm.Zero, "touch")
		}))
		if info := f.run(); info.Reason != ExitShutdown {
			t.Fatalf("reason = %v", info.Reason)
		}
		if _, err := f.s.HVCall(f.h, FnSuspend, uint64(f.id)); err != nil {
			t.Fatal(err)
		}
		n, err := f.s.Snapshot(f.h, f.id, snapBufPA, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
			t.Fatal(err)
		}
		id, err := f.s.Restore(f.h, snapBufPA, n)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := f.s.MappedFrames(id)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	a, b := restored(), restored()
	if !slices.Equal(a, b) {
		t.Errorf("restored frame layouts differ between identical runs:\n%x\n%x", a, b)
	}
}

func TestSnapshotRequiresSuspension(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) { p.NOP() }))
	if _, err := f.s.Snapshot(f.h, f.id, snapBufPA, 1<<20); !errors.Is(err, ErrBadState) {
		t.Errorf("snapshot of runnable CVM: %v", err)
	}
}

func TestSnapshotBufferValidation(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) { p.NOP() }))
	_, _ = f.s.HVCall(f.h, FnSuspend, uint64(f.id))
	// Secure-memory destination refused.
	if _, err := f.s.Snapshot(f.h, f.id, poolBase, 1<<20); !errors.Is(err, ErrNotNormal) {
		t.Errorf("secure destination: %v", err)
	}
	// Too-small buffer refused.
	if _, err := f.s.Snapshot(f.h, f.id, snapBufPA, 64); !errors.Is(err, ErrBadArgs) {
		t.Errorf("tiny buffer: %v", err)
	}
}

// A hypervisor that flips bits in the sealed blob gets an authentication
// failure, never a half-restored CVM.
func TestSnapshotTamperDetected(t *testing.T) {
	f := newFixture(t, Config{})
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.LI(asm.T1, 0x5EC4E7)
		p.SD(asm.T1, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatal(info.Reason)
	}
	// Re-create and suspend (the run above ended; rebuild a suspended one).
	_, _ = f.s.HVCall(f.h, FnSuspend, uint64(f.id))
	n, err := f.s.Snapshot(f.h, f.id, snapBufPA, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext byte mid-blob.
	v, _ := f.m.RAM.ReadUint(snapBufPA+n/2, 1)
	_ = f.m.RAM.WriteUint(snapBufPA+n/2, v^1, 1)
	if _, err := f.s.Restore(f.h, snapBufPA, n); !errors.Is(err, ErrTampered) {
		t.Errorf("tampered blob: %v", err)
	}
}

// The blob must not leak plaintext guest memory: search the sealed bytes
// for a known secret pattern.
func TestSnapshotIsOpaque(t *testing.T) {
	f := newFixture(t, Config{})
	secret := []byte{0xDE, 0xC0, 0xAD, 0x0B, 0xEF, 0xBE, 0xAD, 0xDE}
	f.buildCVM(shutdownProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(PrivateBase)+0x10_0000)
		p.LIU(asm.T1, 0xDEADBEEF0BADC0DE)
		p.SD(asm.T1, asm.T0, 0)
	}))
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatal(info.Reason)
	}
	_, _ = f.s.HVCall(f.h, FnSuspend, uint64(f.id))
	n, err := f.s.Snapshot(f.h, f.id, snapBufPA, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := f.m.RAM.Read(snapBufPA, n)
	if bytes.Contains(blob, secret) {
		t.Error("sealed snapshot contains plaintext guest secret")
	}
}
