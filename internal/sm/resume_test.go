package sm

import (
	"errors"
	"fmt"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
)

// Check-after-Load at the shared-vCPU trust boundary: the hypervisor owns
// every 64-bit word of the shared vCPU page, so the SM must compare the
// revalidated fields at full width and never truncate them.

// resumeProgram arms SRST before a doubleword MMIO access: a load into
// s4, or with write a store of s4. After the hypervisor's answer the guest
// executes only an ecall, which changes no register.
func resumeProgram(write bool) *asm.Program {
	p := asm.New(PrivateBase)
	p.LI(asm.T0, 0x1000_0000)
	p.LI(asm.A7, EIDReset)
	if write {
		p.LI(asm.S4, 0x5eed)
		p.SD(asm.S4, asm.T0, 0)
	} else {
		p.LD(asm.S4, asm.T0, 0)
	}
	p.ECALL()
	return p
}

// toMMIOExit builds a fresh CVM on f and runs it to its MMIO exit (see
// resumeProgram), returning the secure register file and PC at the exit.
func (f *fixture) toMMIOExit(write bool) ([32]uint64, uint64) {
	f.t.Helper()
	f.buildCVM(resumeProgram(write))
	info := f.run()
	switch {
	case write && (info.Reason != ExitMMIOWrite || info.Data != 0x5eed || info.Width != 8):
		f.t.Fatalf("exit = %+v, want an 8-byte mmio-write of 0x5eed", info)
	case !write && (info.Reason != ExitMMIORead || info.Target != asm.S4):
		f.t.Fatalf("exit = %+v, want mmio-read into s4", info)
	}
	sec := f.s.life.cvms[f.id].vcpus[0].sec
	return sec.X, sec.PC
}

// xorShared XORs mask into the shared-vCPU word at off and returns the
// value now stored there.
func (f *fixture) xorShared(off, mask uint64) uint64 {
	f.t.Helper()
	cur, err := f.m.RAM.ReadUint64(sharedPA + off)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.m.RAM.WriteUint64(sharedPA+off, cur^mask); err != nil {
		f.t.Fatal(err)
	}
	return cur ^ mask
}

// wantQuarantined requires the resume to fail Check-after-Load and the
// CVM to be quarantined with the pool and the auditor intact.
func (f *fixture) wantQuarantined(err error, what string) {
	f.t.Helper()
	if !errors.Is(err, ErrTampered) {
		f.t.Fatalf("%s: err = %v, want ErrTampered", what, err)
	}
	if _, ok := f.s.Quarantined(f.id); !ok {
		f.t.Fatalf("%s: tampered CVM not quarantined", what)
	}
	if n, all := f.s.PoolFreeBlocks(), int(f.poolBytes/BlockSize); n != all {
		f.t.Fatalf("%s: pool free blocks = %d, want all %d", what, n, all)
	}
	if found := f.s.Audit(); len(found) != 0 {
		f.t.Fatalf("%s: audit findings %v", what, found)
	}
}

// TestCheckAfterLoadFullWidth flips each of the 64 bits of each
// revalidated field; every flip must be caught and quarantine the CVM.
func TestCheckAfterLoadFullWidth(t *testing.T) {
	f := newFixture(t, Config{})
	fields := []struct {
		name string
		off  uint64
	}{{"seq", ShvSeq}, {"reason", ShvExitReason}, {"target", ShvTargetReg}, {"width", ShvWidth}}
	for _, fld := range fields {
		for bit := 0; bit < 64; bit++ {
			f.toMMIOExit(false)
			f.xorShared(fld.off, 1<<bit)
			_, err := f.s.RunVCPU(f.h, f.id, 0)
			f.wantQuarantined(err, fmt.Sprintf("%s bit %d", fld.name, bit))
			// Release the post-mortem; the next case builds a fresh CVM.
			if _, err := f.s.HVCall(f.h, FnDestroy, uint64(f.id)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// toTimerExit builds a fresh CVM on f whose guest counts in s4 forever
// and runs it to its first quantum expiry.
func (f *fixture) toTimerExit() {
	f.t.Helper()
	p := asm.New(PrivateBase)
	p.Label("spin")
	p.ADDI(asm.S4, asm.S4, 1)
	p.J("spin")
	f.buildCVM(p)
	if info := f.run(); info.Reason != ExitTimer {
		f.t.Fatalf("exit = %+v, want a quantum expiry", info)
	}
}

// Pool-empty fixture: two blocks, one for the image's tables and one for
// the guest's first BlockPages touches, so touch BlockPages+1 exits for
// pool expansion; the hypervisor's answer registers two more blocks, and
// the remaining touches fit in them.
const (
	drainPool    = 2 * BlockSize
	drainTouches = BlockPages + 8
)

// toPoolEmptyExit builds a fresh CVM on f, whose pool must be drainPool
// bytes, runs it to its pool-empty exit and answers that exit as the
// hypervisor does, with a run-time FnRegisterPool.
func (f *fixture) toPoolEmptyExit() {
	f.t.Helper()
	f.buildCVM(touchProgram(drainTouches, -1))
	if info := f.run(); info.Reason != ExitPoolEmpty {
		f.t.Fatalf("exit = %+v, want pool-empty", info)
	}
	if _, err := f.s.HVCall(f.h, FnRegisterPool, poolBase+2*drainPool, drainPool); err != nil {
		f.t.Fatal(err)
	}
	f.poolBytes += drainPool
}

// boundaryProbe is a StepHook that records the guest's registers and PC
// at instruction boundaries: the latest boundary until armed, then the
// first boundary after arming.
type boundaryProbe struct {
	armed, taken bool
	x            [32]uint64
	pc           uint64
}

func (p *boundaryProbe) hook(h *hart.Hart, _ int) {
	if !p.taken {
		p.x, p.pc, p.taken = h.X, h.PC, p.armed
	}
}

// FuzzResume puts fuzzer-chosen values in every hypervisor-writable
// shared-vCPU field after an exit: kind%4 is 0 for an MMIO read, 1 for an
// MMIO write, 2 for a quantum expiry and 3 for a pool-empty exit, which
// the hypervisor answers with a run-time FnRegisterPool. Each value is
// XORed into the word the SM published, so all zeros is the honest
// hypervisor and every 64-bit value is reachable. Oracle after an MMIO
// exit: when a revalidated field (reason, target, seq, width) changed, the
// resume fails with ErrTampered and the CVM is quarantined; otherwise the
// PC advanced only past the trailing ecall and the secure registers are
// unchanged except, for a read, the target register, which holds the
// emulated data. A quantum expiry and a pool-empty exit ask the hypervisor
// no question the SM revalidates: the SM may refuse a changed shared vCPU
// with ErrTampered and quarantine, never an unchanged one, and otherwise
// the guest's first instruction on resume is the interrupted one (the
// faulting store, retried), with every register unchanged; after a
// pool-empty exit the guest then runs to shutdown with the auditor clean.
func FuzzResume(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(0), uint64(0), uint64(0x1234), uint64(1), uint64(0), ^uint64(0), uint64(0), uint64(0))
	f.Add(uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1)<<63, uint64(0))
	f.Add(uint8(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(1), uint64(0), uint64(0), uint64(0), uint64(asm.S4), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(2), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(3), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, reason, htval, htinst, target, data, seq, width uint64) {
		kind %= 4
		write := kind == 1
		var (
			probe      boundaryProbe
			fx         *fixture
			before     [32]uint64
			pc         uint64
			wantReason = ExitShutdown
		)
		// After a quantum expiry or a pool-empty exit, the last boundary
		// the guest reached is where it resumes.
		switch kind {
		case 2:
			fx = newFixture(t, Config{SchedQuantum: 5_000, StepHook: probe.hook})
			fx.toTimerExit()
			before, pc, probe.armed = probe.x, probe.pc, true
			wantReason = ExitTimer
		case 3:
			fx = newFixturePool(t, Config{StepHook: probe.hook}, drainPool)
			fx.toPoolEmptyExit()
			before, pc, probe.armed = probe.x, probe.pc, true
		default:
			fx = newFixture(t, Config{})
			before, pc = fx.toMMIOExit(write)
		}
		fx.xorShared(ShvExitReason, reason)
		fx.xorShared(ShvHtval, htval)
		fx.xorShared(ShvHtinst, htinst)
		fx.xorShared(ShvTargetReg, target)
		val := fx.xorShared(ShvData, data)
		fx.xorShared(ShvSeq, seq)
		fx.xorShared(ShvWidth, width)
		info, err := fx.s.RunVCPU(fx.h, fx.id, 0)
		tampered := reason|target|seq|width != 0
		if kind >= 2 {
			tampered = errors.Is(err, ErrTampered) && reason|htval|htinst|target|data|seq|width != 0
		}
		if tampered {
			fx.wantQuarantined(err, "tampered resume")
			return
		}
		if err != nil || info.Reason != wantReason {
			t.Fatalf("honest resume: reason %v, err %v", info.Reason, err)
		}
		if kind >= 2 {
			if !probe.taken || probe.pc != pc || probe.x != before {
				t.Fatalf("resume after exit kind %d: ran=%v pc %#x (want %#x)\n got %x\nwant %x",
					kind, probe.taken, probe.pc, pc, probe.x, before)
			}
			if found := fx.s.Audit(); len(found) != 0 {
				t.Fatalf("audit findings after the resume: %v", found)
			}
			return
		}
		want := before
		if !write {
			want[asm.S4] = val
		}
		sec := fx.s.life.cvms[fx.id].vcpus[0].sec
		if sec.X != want {
			t.Fatalf("secure registers after resume:\n got %x\nwant %x", sec.X, want)
		}
		if sec.PC != pc+4 {
			t.Fatalf("PC after resume and ecall = %#x, want %#x", sec.PC, pc+4)
		}
	})
}
