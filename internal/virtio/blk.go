package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Virtio-blk request types and status codes.
const (
	BlkTIn  = 0 // device -> driver (disk read)
	BlkTOut = 1 // driver -> device (disk write)

	BlkSOK    = 0
	BlkSIOErr = 1
	BlkSUnsup = 2

	// SectorSize is the virtio-blk sector granule.
	SectorSize = 512
)

// Blk is a virtio block device over a thin-provisioned in-memory disk
// (thinDisk): a never-written sector reads as zeros and costs no memory.
// With nqueues > 1 it exposes independent request queues (multi-queue
// blk per virtio 1.2 semantics: any queue carries any request; per-queue
// state lets concurrent submitters avoid sharing a ring). Notify drains
// the rung queue in batches and runs allocation-free once warm.
type Blk struct {
	dev     *MMIODev
	disk    thinDisk
	nqueues int

	// Reusable scratch for the batched pump.
	hdr  [16]byte   // request header
	buf  []byte     // write payload, or a read spanning sectors
	used []UsedElem // completion batch
	st   [1]byte    // status byte

	// Stats for the I/O benchmarks.
	Reads, Writes   uint64
	BytesR, BytesW  uint64
	ProcessedChains uint64
}

// errDiskRange is ReadAt's and WriteAt's answer to an offset off the disk.
var errDiskRange = errors.New("virtio-blk: access outside the disk")

// NewBlk creates a single-queue block device with the given disk
// capacity (bytes, rounded down to whole sectors) and wraps it in an
// MMIO transport at base. mem is the device's guest-memory view.
func NewBlk(base uint64, capacity uint64, mem MemIO) *Blk {
	return NewBlkMQ(base, capacity, mem, 1)
}

// NewBlkMQ creates a block device with nqueues request queues.
func NewBlkMQ(base uint64, capacity uint64, mem MemIO, nqueues int) *Blk {
	if nqueues < 1 {
		nqueues = 1
	}
	b := &Blk{disk: newThinDisk(capacity / SectorSize), nqueues: nqueues}
	b.dev = NewMMIODev(base, b, mem)
	return b
}

// Dev returns the MMIO transport (attach it to a VM's device model).
func (b *Blk) Dev() *MMIODev { return b.dev }

// DeviceID implements Backend (2 = block device).
func (b *Blk) DeviceID() uint32 { return 2 }

// NumQueues implements Backend.
func (b *Blk) NumQueues() int { return b.nqueues }

// Config implements Backend: capacity in sectors (first 8 config bytes).
func (b *Blk) Config() []byte {
	var cfg [8]byte
	binary.LittleEndian.PutUint64(cfg[:], b.disk.sectors())
	return cfg[:]
}

// ReadAt implements io.ReaderAt over the disk image: it reads what lies
// on the disk and returns io.EOF if p runs past the end.
func (b *Blk) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errDiskRange
	}
	n := 0
	if size := b.disk.sectors() * SectorSize; uint64(off) < size {
		n = int(min(uint64(len(p)), size-uint64(off)))
		b.disk.readAt(p[:n], uint64(off))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt over the disk image (tests preload
// content through it). A write that does not fit on the disk writes
// nothing.
func (b *Blk) WriteAt(p []byte, off int64) (int, error) {
	if size := b.disk.sectors() * SectorSize; off < 0 || uint64(off) > size || uint64(len(p)) > size-uint64(off) {
		return 0, errDiskRange
	}
	b.disk.writeAt(p, uint64(off))
	return len(p), nil
}

// Notify implements Backend: drain the rung queue in batches — one
// avail-index read and one used-ring publish per batch instead of per
// request.
func (b *Blk) Notify(q int) error {
	if q < 0 || q >= b.nqueues {
		return fmt.Errorf("virtio-blk: bad queue %d", q)
	}
	queue := b.dev.Queue(q)
	mem := b.dev.Mem()
	for {
		chains, err := queue.PopBatch(mem, 0)
		if err != nil {
			return err
		}
		if len(chains) == 0 {
			return nil
		}
		if cap(b.used) < len(chains) {
			b.used = make([]UsedElem, 0, int(queue.Size))
		}
		b.used = b.used[:0]
		for i := range chains {
			b.ProcessedChains++
			written, err := b.process(mem, &chains[i])
			if err != nil {
				return err
			}
			b.used = append(b.used, UsedElem{Head: chains[i].Head, Written: written})
		}
		if err := queue.PushBatch(mem, b.used); err != nil {
			return err
		}
		b.dev.Completed(len(b.used))
	}
}

// inRange reports whether n bytes from sector on lie on the disk. A
// request also moves at most maxSegLen bytes, so its used length fits
// the ring's 32 bits.
func (b *Blk) inRange(sector, n uint64) bool {
	nsec := b.disk.sectors()
	return sector < nsec && n <= (nsec-sector)*SectorSize && n <= maxSegLen
}

// scratch returns n bytes of the reusable buffer; n is a validated
// request length.
func (b *Blk) scratch(n uint64) []byte {
	if uint64(cap(b.buf)) < n {
		b.buf = make([]byte, n)
	}
	return b.buf[:n]
}

// process executes one blk request chain: a 16-byte header at the start
// of the readable bytes, then the data (readable for a write, writable
// for a read), then one status byte, the last byte of the last writable
// segment. Lengths are checked against the disk before a byte moves.
func (b *Blk) process(mem MemIO, ch *Chain) (uint32, error) {
	rc := ch.ReadCap()
	if rc < uint64(len(b.hdr)) {
		return 0, &ChainError{Kind: ChainNoHeader, Head: ch.Head, Index: ch.Head}
	}
	if err := ch.Gather(mem, b.hdr[:], 0); err != nil {
		return 0, err
	}
	if len(ch.WriteGPA) == 0 || ch.WriteGPA[len(ch.WriteGPA)-1].Len == 0 {
		return 0, &ChainError{Kind: ChainNoStatus, Head: ch.Head, Index: ch.Head}
	}
	typ := binary.LittleEndian.Uint32(b.hdr[0:4])
	sector := binary.LittleEndian.Uint64(b.hdr[8:16])
	off := sector * SectorSize // meaningful only once inRange holds

	status := byte(BlkSOK)
	written := uint32(0)
	switch typ {
	case BlkTIn:
		// Read: fill every writable byte except the final status byte.
		n := ch.WriteCap() - 1
		if !b.inRange(sector, n) {
			status = BlkSIOErr
			break
		}
		w, err := scatterData(mem, ch, b.disk.bytes(off, n, b.scratch(n)))
		if err != nil {
			return 0, err
		}
		written = w
		b.Reads++
		b.BytesR += n
	case BlkTOut:
		n := rc - uint64(len(b.hdr))
		if !b.inRange(sector, n) {
			status = BlkSIOErr
			break
		}
		// Gather the whole payload before touching the disk, so a
		// request whose gather fails leaves it unchanged.
		data := b.scratch(n)
		if err := ch.Gather(mem, data, uint64(len(b.hdr))); err != nil {
			return 0, err
		}
		b.disk.writeAt(data, off)
		b.Writes++
		b.BytesW += n
	default:
		status = BlkSUnsup
	}
	last := ch.WriteGPA[len(ch.WriteGPA)-1]
	b.st[0] = status
	if err := mem.WriteBytes(last.GPA+uint64(last.Len)-1, b.st[:]); err != nil {
		return 0, err
	}
	return written + 1, nil
}

// scatterData fills the chain's writable segments with data, in order,
// reserving the final byte of the final segment for the status. The
// caller has checked that they hold len(data)+1 bytes.
func scatterData(mem MemIO, ch *Chain, data []byte) (uint32, error) {
	written := uint32(0)
	for i, s := range ch.WriteGPA {
		if len(data) == 0 {
			break
		}
		capacity := s.Len
		if i == len(ch.WriteGPA)-1 {
			capacity-- // status byte
		}
		n := min(int(capacity), len(data))
		if n == 0 {
			continue
		}
		if err := mem.WriteBytes(s.GPA, data[:n]); err != nil {
			return written, err
		}
		data = data[n:]
		written += uint32(n)
	}
	return written, nil
}
