package guest

import (
	"bytes"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/sm"
	"zion/internal/virtio"
)

// blkMQProgram writes a pattern to sector 5 through blk queue 1, reads
// it back through queue 0, and compares — two queues with independent
// rings, cursors, header and status bytes, exercised by the interpreted
// driver in one guest run.
func blkMQProgram(l DMALayout) []byte {
	p := asm.New(hv.GuestRAMBase)
	EmitDriverInit(p)

	p.LI(asm.T0, int64(l.Bounce))
	p.LI(asm.T1, 512/8)
	p.LI(asm.T2, 0x6B6B6B6B6B6B6B6B)
	p.Label("fill")
	p.SD(asm.T2, asm.T0, 0)
	p.ADDI(asm.T0, asm.T0, 8)
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "fill")

	// Write 512 bytes at sector 5 via queue 1.
	p.LI(RegBuf, int64(l.Bounce))
	p.LI(RegLen, 512)
	p.LI(RegSector, 5)
	EmitBlkIOOn(p, l, true, 1)

	// Read it back via queue 0 into a second bounce buffer.
	p.LI(RegBuf, int64(l.Bounce)+0x2000)
	p.LI(RegLen, 512+1)
	p.LI(RegSector, 5)
	EmitBlkIOOn(p, l, false, 0)

	// Compare; park 0xBAD in s6 on mismatch so a debugger sees it.
	p.LI(asm.T0, int64(l.Bounce))
	p.LI(asm.T1, int64(l.Bounce)+0x2000)
	p.LI(asm.T2, 512/8)
	p.Label("cmp")
	p.LD(asm.A2, asm.T0, 0)
	p.LD(asm.A3, asm.T1, 0)
	p.BEQ(asm.A2, asm.A3, "cmpok")
	p.LI(asm.S6, 0xBAD)
	p.Label("cmpok")
	p.ADDI(asm.T0, asm.T0, 8)
	p.ADDI(asm.T1, asm.T1, 8)
	p.ADDI(asm.T2, asm.T2, -1)
	p.BNE(asm.T2, asm.Zero, "cmp")

	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// runBlkMQOnce boots a fresh stack, puts its hart on an engine tier with
// tier, and runs the MQ program in a CVM, returning the simulation
// fingerprint.
func runBlkMQOnce(t *testing.T, tier func(h *hart.Hart)) (cycles, instret uint64, blk *virtio.Blk) {
	t.Helper()
	k, h := newStack(t, sm.Config{})
	tier(h)
	l := LayoutFor(true)
	vm, err := k.CreateCVM(h, "cvm-mq", blkMQProgram(l), hv.GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetupSharedWindow(h, vm); err != nil {
		t.Fatal(err)
	}
	blk = SetupBlkMQ(k, vm, h, 1<<20, 2, QueueSize)

	info, err := k.RunCVM(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v (dev err: %v)", info.Reason, blk.Dev().LastErr)
	}
	return h.Cycles, h.Instret, blk
}

// TestCVMBlkMQLockstep drives the two-queue interpreted driver under all
// four execution tiers and demands a bit-identical simulation
// fingerprint — the MQ data path must not perturb engine equivalence.
func TestCVMBlkMQLockstep(t *testing.T) {
	engines := []struct {
		name string
		set  func(h *hart.Hart)
	}{
		{"slow", func(h *hart.Hart) { h.DisableFastPath() }},
		{"fast", func(h *hart.Hart) { h.SetSuperblocks(false) }},
		{"block", func(h *hart.Hart) { h.SetTraces(false) }},
		{"trace", func(*hart.Hart) {}},
	}
	var refCycles, refInstret uint64
	for i, e := range engines {
		cycles, instret, blk := runBlkMQOnce(t, e.set)
		if blk.Writes != 1 || blk.Reads != 1 {
			t.Fatalf("%s: blk ops %d writes %d reads", e.name, blk.Writes, blk.Reads)
		}
		want := bytes.Repeat([]byte{0x6B}, 512)
		got := make([]byte, 512)
		if _, err := blk.ReadAt(got, 5*virtio.SectorSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: disk content mismatch", e.name)
		}
		if i == 0 {
			refCycles, refInstret = cycles, instret
			continue
		}
		if cycles != refCycles || instret != refInstret {
			t.Errorf("%s diverged from slow: cycles %d vs %d, instret %d vs %d",
				e.name, cycles, refCycles, instret, refInstret)
		}
	}
}
