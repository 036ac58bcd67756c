// Confidential-io: a confidential VM doing real device I/O through the
// split-page-table shared window (§IV.E): virtio-blk writes and reads
// through a SWIOTLB bounce buffer, and a virtio-net echo — while the
// device model remains unable to reach a single byte of private memory.
package main

import (
	"bytes"
	"fmt"
	"log"

	"zion"
	"zion/internal/asm"
	"zion/internal/guest"
	"zion/internal/sm"
	"zion/internal/virtio"
)

func main() {
	sys, err := zion.NewSystem(zion.Config{})
	if err != nil {
		log.Fatal(err)
	}
	l := guest.LayoutFor(true)

	// The guest: copy a secret from *private* memory through the bounce
	// buffer to disk (SWIOTLB), read it back, then echo one network frame
	// with every byte incremented.
	p := asm.New(zion.GuestRAMBase)
	guest.EmitDriverInit(p)

	// Build the secret in private memory.
	priv := int64(zion.GuestRAMBase) + 0x10_0000
	p.LI(asm.T0, priv)
	p.LIU(asm.T1, 0x5EC4E75EC4E75EC4)
	p.LI(asm.T2, 512/8)
	p.Label("mk")
	p.SD(asm.T1, asm.T0, 0)
	p.ADDI(asm.T1, asm.T1, 1)
	p.ADDI(asm.T0, asm.T0, 8)
	p.ADDI(asm.T2, asm.T2, -1)
	p.BNE(asm.T2, asm.Zero, "mk")

	// SWIOTLB: bounce the secret into the shared window.
	p.LI(asm.T0, priv)
	p.LI(asm.T1, int64(l.Bounce))
	p.LI(asm.T2, 512/8)
	p.Label("bounce")
	p.LD(asm.A0, asm.T0, 0)
	p.SD(asm.A0, asm.T1, 0)
	p.ADDI(asm.T0, asm.T0, 8)
	p.ADDI(asm.T1, asm.T1, 8)
	p.ADDI(asm.T2, asm.T2, -1)
	p.BNE(asm.T2, asm.Zero, "bounce")

	// Disk write at sector 4, then read back into bounce+0x2000.
	p.LI(guest.RegBuf, int64(l.Bounce))
	p.LI(guest.RegLen, 512)
	p.LI(guest.RegSector, 4)
	guest.EmitBlkIO(p, l, true)
	p.LI(guest.RegBuf, int64(l.Bounce)+0x2000)
	p.LI(guest.RegLen, 512)
	p.LI(guest.RegSector, 4)
	guest.EmitBlkIO(p, l, false)

	// Network echo: wait for a frame, add 1 to each byte, send it back.
	rxBuf := int64(l.Bounce) + 0x4000
	txBuf := int64(l.Bounce) + 0x5000
	p.LI(guest.RegBuf, rxBuf)
	p.LI(guest.RegLen, 256)
	guest.EmitNetRXPost(p, l)
	guest.EmitNetRXWait(p, l)
	p.ADDI(asm.T5, asm.T5, -virtio.NetHdrLen)
	p.LI(asm.T0, rxBuf+virtio.NetHdrLen)
	p.LI(asm.T1, txBuf+virtio.NetHdrLen)
	p.MV(asm.T2, asm.T5)
	p.Label("xf")
	p.LBU(asm.A0, asm.T0, 0)
	p.ADDI(asm.A0, asm.A0, 1)
	p.SB(asm.A0, asm.T1, 0)
	p.ADDI(asm.T0, asm.T0, 1)
	p.ADDI(asm.T1, asm.T1, 1)
	p.ADDI(asm.T2, asm.T2, -1)
	p.BNE(asm.T2, asm.Zero, "xf")
	p.LI(guest.RegBuf, txBuf)
	p.ADDI(guest.RegLen, asm.T5, virtio.NetHdrLen)
	guest.EmitNetTX(p, l)

	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()

	vm, err := sys.CreateConfidentialVM("io", p.MustAssemble(), zion.GuestRAMBase)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.EnableSharedWindow(vm); err != nil {
		log.Fatal(err)
	}
	blk := sys.AttachBlockDevice(vm, 1<<20)
	net := sys.AttachNetDevice(vm)
	var echoed []byte
	net.Tap = func(f []byte) { echoed = append([]byte(nil), f...) }

	// Run until the guest blocks waiting for a frame, inject, finish.
	reason, err := sys.RunOnce(vm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guest parked awaiting network input (exit=%s)\n", reason)
	if err := net.Inject([]byte{1, 2, 3, 4}); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(vm); err != nil {
		log.Fatal(err)
	}

	// Disk content is the bounced secret.
	want := make([]byte, 512)
	v := uint64(0x5EC4E75EC4E75EC4)
	for i := 0; i < 64; i++ {
		for b := 0; b < 8; b++ {
			want[i*8+b] = byte(v >> (8 * uint(b)))
		}
		v++
	}
	got := make([]byte, 512)
	if _, err := blk.ReadAt(got, 4*virtio.SectorSize); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk holds the bounced secret: %v\n", bytes.Equal(got, want))
	fmt.Printf("network echo: sent [1 2 3 4], received %v\n", echoed)
	fmt.Printf("blk device stats: %d writes, %d reads, %d bytes moved\n",
		blk.Writes, blk.Reads, blk.BytesR+blk.BytesW)
	fmt.Printf("exit profile: %v\n", vm.Exits())
	fmt.Println("private memory stayed invisible: the device model resolves only the shared window")
}
