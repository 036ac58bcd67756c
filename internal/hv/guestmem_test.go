package hv

import (
	"encoding/binary"
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/virtio"
)

// noDeadline is a hart.Clock with no timer armed.
type noDeadline struct{}

func (noDeadline) NextDeadline(int) (uint64, bool) { return 0, false }

// A device write through a shared-window page's cached host bytes must
// drop every decoding of that page. A hart runs on the compiled tier from
// a shared-window frame that holds code, GuestMem.WriteBytes overwrites
// one instruction, and the next run must execute the new one. The
// window's stage-2 leaves are not executable, so no CVM fetches from
// them; the second hart runs the frame by PA in M-mode instead. Decoded
// pages are keyed and invalidated by PA, so this is the notification any
// decoding of the frame depends on.
func TestGuestMemWriteDropsDecodedPage(t *testing.T) {
	m := platform.New(2, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h := m.Harts[0]
	h.Mode = isa.ModeS
	if err := k.RegisterSecurePool(h, 16<<20); err != nil {
		t.Fatal(err)
	}
	vm := windowCVM(t, k, h)
	g := k.NewGuestMem(vm, h)

	const gpa = sm.SharedBase + 0x100
	word := func(build func(p *asm.Program)) []byte {
		p := asm.New(0)
		build(p)
		return p.MustAssemble()
	}
	code := word(func(p *asm.Program) {
		p.ADDI(asm.T1, asm.Zero, 1)
		p.ECALL()
	})
	if err := g.WriteBytes(gpa, code); err != nil {
		t.Fatal(err)
	}
	pa, ok := vm.SharedPA(gpa)
	if !ok {
		t.Fatal("shared page not mapped")
	}

	cpu := m.Harts[1]
	run := func() {
		t.Helper()
		cpu.PC = pa
		if _, ev := cpu.Run(noDeadline{}, 100); ev.Kind != hart.EvTrap || ev.Trap.Cause != isa.ExcEcallM {
			t.Fatalf("run ended with %+v, want an M-mode ecall", ev)
		}
	}
	run()
	if got := cpu.Reg(asm.T1); got != 1 {
		t.Fatalf("t1 = %d, want 1", got)
	}
	before := cpu.FastPathStats()
	if before.BlockBuilds == 0 {
		t.Fatalf("the frame was never decoded: %+v", before)
	}

	if err := g.WriteBytes(gpa, word(func(p *asm.Program) { p.ADDI(asm.T1, asm.Zero, 2) })); err != nil {
		t.Fatal(err)
	}
	run()
	if got := cpu.Reg(asm.T1); got != 2 {
		t.Fatalf("t1 = %d, want 2: the overwritten instruction did not execute", got)
	}
	after := cpu.FastPathStats()
	if after.BlockInvals == before.BlockInvals || after.BlockBuilds == before.BlockBuilds {
		t.Errorf("decoded page not dropped and rebuilt: before %+v, after %+v", before, after)
	}
}

// A CVM's store that lands through its hart's fast-path page slice is
// visible to the device view's next read of the same page: both alias
// one RAM page, whichever of them touched it first.
func TestGuestStoreVisibleToGuestMem(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	const gpa = sm.SharedBase + 0x2000 + 0x40
	img := guestProgram(func(p *asm.Program) {
		p.LI(asm.T0, int64(gpa))
		p.LI(asm.T1, 0)
		p.LI(asm.T2, 16)
		p.Label("loop")
		p.ADDI(asm.T1, asm.T1, 1)
		p.SD(asm.T1, asm.T0, 0)
		p.BNE(asm.T1, asm.T2, "loop")
	})
	vm, err := k.CreateCVM(h, "cvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetupSharedWindow(h, vm); err != nil {
		t.Fatal(err)
	}
	g := k.NewGuestMem(vm, h)
	var buf [8]byte
	if err := g.ReadInto(gpa, buf[:]); err != nil { // maps the page, caches its bytes
		t.Fatal(err)
	}
	hits := h.FastPathStats().WriteHits
	info, err := k.RunCVM(h, vm, 0)
	if err != nil || info.Reason != sm.ExitShutdown {
		t.Fatalf("RunCVM = %v, %v", info.Reason, err)
	}
	if h.FastPathStats().WriteHits == hits {
		t.Fatal("no guest store went through the fast-path page slice")
	}
	if err := g.ReadInto(gpa, buf[:]); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(buf[:]); v != 16 {
		t.Errorf("device view reads %d, want the guest's last store 16", v)
	}
}

// Copies outside the window fail with the typed out-of-window error, and
// a window page whose backing PA lies outside RAM takes PhysMemory's path
// and returns its error, for reads and writes alike.
func TestGuestMemCopyErrors(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	vm := windowCVM(t, k, h)
	g := k.NewGuestMem(vm, h)
	buf := make([]byte, 16)

	for _, gpa := range []uint64{sm.SharedBase - 16, sm.SharedBase + sharedWindowSize, GuestRAMBase} {
		var oe *virtio.OutOfWindowError
		if err := g.ReadInto(gpa, buf); !errors.As(err, &oe) || oe.GPA != gpa || oe.Len != len(buf) {
			t.Errorf("ReadInto(%#x) = %v, want OutOfWindowError{%#x, %d}", gpa, err, gpa, len(buf))
		}
		if err := g.WriteBytes(gpa, buf); !errors.As(err, &oe) || oe.GPA != gpa {
			t.Errorf("WriteBytes(%#x) = %v, want OutOfWindowError", gpa, err)
		}
	}

	// Shadow a window page onto a frame past the end of RAM.
	const off = 7 * isa.PageSize
	ram := k.M.RAM
	outside := ram.Base() + ram.Size()
	vm.statMu.Lock()
	vm.shared.store(off, outside)
	vm.statMu.Unlock()
	gpa := sm.SharedBase + off + 8
	wantRead := ram.ReadInto(outside+8, buf)
	wantWrite := ram.Write(outside+8, buf)
	if wantRead == nil || wantWrite == nil {
		t.Fatal("RAM accepted an access past its end")
	}
	if err := g.ReadInto(gpa, buf); err == nil || err.Error() != wantRead.Error() {
		t.Errorf("ReadInto past RAM = %v, want %v", err, wantRead)
	}
	if err := g.WriteBytes(gpa, buf); err == nil || err.Error() != wantWrite.Error() {
		t.Errorf("WriteBytes past RAM = %v, want %v", err, wantWrite)
	}
	if e := vm.shared.entry(off); e.host.Load() != nil {
		t.Error("a PA outside RAM cached host bytes")
	}
}
