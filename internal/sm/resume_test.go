package sm

import (
	"errors"
	"fmt"
	"testing"

	"zion/internal/asm"
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
	if n := f.s.PoolFreeBlocks(); n != fullPool {
		f.t.Fatalf("%s: pool free blocks = %d, want %d", what, n, fullPool)
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

// FuzzResume puts fuzzer-chosen values in every hypervisor-writable
// shared-vCPU field after an MMIO-read or, with write, an MMIO-write exit.
// Each argument is XORed into the word the SM published, so all zeros is
// the honest hypervisor and every 64-bit value is reachable. Oracle:
// either the resume fails with ErrTampered and the CVM is quarantined, or
// every revalidated field was intact, the PC advanced only past the
// trailing ecall, and the secure registers are unchanged except, for a
// read, the target register, which holds the emulated data.
func FuzzResume(f *testing.F) {
	f.Add(false, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(false, uint64(0), uint64(0x1234), uint64(1), uint64(0), ^uint64(0), uint64(0), uint64(0))
	f.Add(false, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1)<<63, uint64(0))
	f.Add(true, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(true, uint64(0), uint64(0), uint64(0), uint64(asm.S4), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, write bool, reason, htval, htinst, target, data, seq, width uint64) {
		fx := newFixture(t, Config{})
		before, pc := fx.toMMIOExit(write)
		fx.xorShared(ShvExitReason, reason)
		fx.xorShared(ShvHtval, htval)
		fx.xorShared(ShvHtinst, htinst)
		fx.xorShared(ShvTargetReg, target)
		val := fx.xorShared(ShvData, data)
		fx.xorShared(ShvSeq, seq)
		fx.xorShared(ShvWidth, width)
		info, err := fx.s.RunVCPU(fx.h, fx.id, 0)
		if reason|target|seq|width != 0 {
			fx.wantQuarantined(err, "tampered resume")
			return
		}
		if err != nil || info.Reason != ExitShutdown {
			t.Fatalf("honest resume: reason %v, err %v", info.Reason, err)
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
